"""Batched execution must be numerically identical to the serial reference.

The whole point of the batch engine is speed *without* changing any
paper-reproduction number: same seeds in, bit-identical trajectories, plans,
labels and experiment results out.  These tests lock that contract in at
every layer — thermal network, HVAC plant, environment, RS planner,
Monte-Carlo distillation and the runner backends.
"""

import copy
import dataclasses

import numpy as np
import pytest

from repro.agents.random_shooting import RandomShootingOptimizer
from repro.agents.rule_based import RuleBasedAgent
from repro.buildings.building import make_five_zone_building
from repro.buildings.hvac import BatchedHVACPlant, BatchedHVACResult
from repro.buildings.thermal import OCCUPANT_GAIN_W, c_einsum
from repro.core.decision_dataset import DecisionDatasetGenerator
from repro.core.sampling import AugmentedHistoricalSampler
from repro.env.dataset import collect_historical_data
from repro.env.hvac_env import make_environment
from repro.env.vector_env import BatchedHVACEnvironment
from repro.experiments.runner import ExperimentResult, ExperimentRunner
from repro.experiments.scenarios import get_scenario
from repro.nn.dynamics import ThermalDynamicsModel
from repro.utils.rng import spawn_rngs

#: Batch sizes of the kernel references: one row, a few, a fleet group.
BATCH_SIZES = (1, 7, 1024)


# ----------------------------------------------------------------- reference
# Verbatim copies of the batched plant as it was before its operands became
# same-shape (B, n_zones) arrays; ``self`` is the first parameter.  The live
# kernels are compared with them bit for bit on the machine the tests run on.
def reference_step_batch(self, temperatures, outdoor_temperature_c, wind_speed_ms, gains_w,
                         duration_seconds):
    """``ThermalNetwork.step_batch`` with ``(B, 1)`` boundary columns."""
    if duration_seconds <= 0:
        raise ValueError("duration_seconds must be positive")
    temps = np.array(temperatures, dtype=float)
    if temps.ndim != 2 or temps.shape[1] != len(self.zones):
        raise ValueError(f"temperatures must have shape (B, {len(self.zones)})")
    outdoor = np.asarray(outdoor_temperature_c, dtype=float).reshape(-1, 1)
    wind = np.asarray(wind_speed_ms, dtype=float).reshape(-1, 1)
    gains = np.asarray(gains_w, dtype=float)

    effective_ua = self._envelope_ua + self._infiltration_per_wind * np.maximum(wind, 0.0)

    remaining = float(duration_seconds)
    dt = self.substep_seconds
    while remaining > 1e-9:
        h = min(dt, remaining)
        envelope_flow = effective_ua * (outdoor - temps)
        inter_zone_flow = (
            np.einsum("ij,bj->bi", self._coupling_matrix, temps)
            - self._coupling_row_sums * temps
        )
        d_temps = (envelope_flow + inter_zone_flow + gains) / self._capacitance
        temps = temps + h * d_temps
        remaining -= h
    return temps


def reference_evaluate(self, zone_temperatures, heating_setpoint_c, cooling_setpoint_c, occupied):
    """``BatchedHVACPlant.evaluate`` with ``(B, 1)`` setpoint and occupancy columns."""
    temps = np.asarray(zone_temperatures, dtype=float)
    heating_sp = np.asarray(heating_setpoint_c, dtype=float).reshape(-1, 1)
    cooling_sp = np.asarray(cooling_setpoint_c, dtype=float).reshape(-1, 1)
    occupied = np.asarray(occupied, dtype=bool).reshape(-1, 1)
    if np.any(heating_sp > cooling_sp):
        raise ValueError("heating setpoint must not exceed cooling setpoint")

    heating_error = heating_sp - temps
    cooling_error = temps - cooling_sp
    heating_mask = heating_error > self.deadband_k
    cooling_mask = ~heating_mask & (cooling_error > self.deadband_k)

    heating_thermal = np.minimum(self.gain_w_per_k * heating_error, self.max_heating_power_w)
    cooling_thermal = np.minimum(self.gain_w_per_k * cooling_error, self.max_cooling_power_w)

    thermal = np.where(
        heating_mask, heating_thermal, np.where(cooling_mask, -cooling_thermal, 0.0)
    )
    electric = np.where(
        heating_mask,
        heating_thermal / self.heating_cop + self.parasitic_power_w,
        np.where(
            cooling_mask,
            cooling_thermal / self.cooling_cop + self.parasitic_power_w,
            np.where(occupied, self.parasitic_power_w, 0.0),
        ),
    )
    return BatchedHVACResult(
        thermal_power_w=thermal,
        electric_power_w=electric,
        heating_mask=heating_mask,
        cooling_mask=cooling_mask,
    )


def reference_substeps(self, temps, heating, cooling, step):
    """The sub-step loop of ``BatchedHVACEnvironment.step`` with its per-zone meter loop.

    Returns the temperatures after the step and the electric, heating and
    cooling energy (kWh) of each building.
    """
    disturbance = self._disturbances[:, step, :]
    occupied = self._occupied[:, step]
    outdoor = disturbance[:, 0]
    wind = disturbance[:, 2]
    solar = disturbance[:, 3]
    occupants = disturbance[:, 4]

    # Constant within the control step, exactly as in the scalar building.
    solar_gain = (np.maximum(solar, 0.0)[:, np.newaxis] * self._window_area) * self._shgc
    internal_gain = (OCCUPANT_GAIN_W * occupants[:, np.newaxis]) * self._area_share + np.where(
        occupied[:, np.newaxis], self._equipment_gain, 0.1 * self._equipment_gain
    )

    batch = self.batch_size
    electric_j = np.zeros(batch)
    thermal_j = np.zeros(batch)
    heating_j = np.zeros(batch)
    cooling_j = np.zeros(batch)

    remaining = self.step_duration_seconds
    while remaining > 1e-9:
        interval = min(self.hvac_substep_seconds, remaining)
        hvac = reference_evaluate(self.plant, temps, heating, cooling, occupied)
        gains = hvac.thermal_power_w + solar_gain + internal_gain
        thermal_abs = np.abs(hvac.thermal_power_w)
        # Zone-sequential accumulation matches the scalar building's
        # summation order bit-for-bit (n_zones is tiny).
        for z in range(temps.shape[1]):
            electric_j += hvac.electric_power_w[:, z] * interval
            zone_abs = thermal_abs[:, z] * interval
            thermal_j += zone_abs
            heating_j += np.where(hvac.heating_mask[:, z], zone_abs, 0.0)
            cooling_j += np.where(hvac.cooling_mask[:, z], zone_abs, 0.0)
        temps = reference_step_batch(self.network, temps, outdoor, wind, gains, interval)
        remaining -= interval

    joules_to_kwh = 1.0 / 3.6e6
    return (
        temps,
        electric_j * joules_to_kwh,
        heating_j * joules_to_kwh,
        cooling_j * joules_to_kwh,
    )


def assert_same_bits(actual, expected):
    """Equal dtype, shape and bytes: ``-0.0`` and ``0.0`` differ, NaNs compare."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert np.ascontiguousarray(actual).tobytes() == np.ascontiguousarray(expected).tobytes()


def zone_form(column, n_zones):
    """A ``(B,)`` per-building column repeated across the zones."""
    return np.repeat(np.asarray(column)[:, np.newaxis], n_zones, axis=1)


def switching_point_temperatures(rng, heating, cooling, deadband, n_zones=5):
    """``(B, n_zones)`` temperatures on and around each row's thermostat switching points.

    Each zone sits exactly at ``setpoint ± deadband``, one ulp either side of
    it, on a setpoint, or at a random temperature.
    """
    candidates = np.stack(
        [
            heating - deadband,
            np.nextafter(heating - deadband, -np.inf),
            np.nextafter(heating - deadband, np.inf),
            heating,
            heating + deadband,
            cooling - deadband,
            cooling + deadband,
            np.nextafter(cooling + deadband, -np.inf),
            np.nextafter(cooling + deadband, np.inf),
            cooling,
            rng.uniform(5.0, 40.0, size=len(heating)),
        ],
        axis=1,
    )
    picks = rng.integers(0, candidates.shape[1], size=(len(heating), n_zones))
    return np.take_along_axis(candidates, picks, axis=1)


# --------------------------------------------------------------------- plant
def test_thermal_step_batch_matches_scalar_rows():
    from repro.buildings.thermal import ThermalState, ZoneGains

    network = make_five_zone_building().network
    rng = np.random.default_rng(0)
    temps = rng.uniform(15.0, 28.0, size=(8, len(network.zones)))
    outdoor = rng.uniform(-10.0, 35.0, size=8)
    wind = rng.uniform(0.0, 12.0, size=8)
    gains = rng.uniform(-2000.0, 4000.0, size=(8, len(network.zones)))

    batched = network.step_batch(temps, outdoor, wind, gains, duration_seconds=900.0)
    for row in range(8):
        scalar = network.step(
            ThermalState(temps[row].copy()),
            outdoor_temperature_c=float(outdoor[row]),
            wind_speed_ms=float(wind[row]),
            gains={
                name: ZoneGains(hvac_thermal_w=float(gains[row, i]))
                for i, name in enumerate(network.zone_names)
            },
            duration_seconds=900.0,
        )
        assert np.array_equal(batched[row], scalar.temperatures)


def test_batched_hvac_plant_matches_scalar_units():
    buildings = [make_five_zone_building() for _ in range(4)]
    plant = BatchedHVACPlant(
        [b.hvac_units for b in buildings], buildings[0].network.zone_names
    )
    rng = np.random.default_rng(1)
    temps = rng.uniform(14.0, 30.0, size=(4, 5))
    heating = np.array([18.0, 20.0, 21.0, 15.0])
    cooling = np.array([24.0, 23.5, 26.0, 30.0])
    occupied = np.array([True, False, True, False])

    result = plant.evaluate(temps, heating, cooling, occupied)
    for b, building in enumerate(buildings):
        for z, name in enumerate(building.network.zone_names):
            scalar = building.hvac_units[name].evaluate(
                zone_temperature_c=float(temps[b, z]),
                heating_setpoint_c=float(heating[b]),
                cooling_setpoint_c=float(cooling[b]),
                occupied=bool(occupied[b]),
            )
            assert result.thermal_power_w[b, z] == scalar.thermal_power_w
            assert result.electric_power_w[b, z] == scalar.electric_power_w
            assert result.heating_mask[b, z] == (scalar.mode == "heating")
            assert result.cooling_mask[b, z] == (scalar.mode == "cooling")


@pytest.mark.parametrize("batch", BATCH_SIZES)
def test_step_batch_matches_reference_in_both_operand_forms(batch):
    network = make_five_zone_building().network
    n_zones = len(network.zones)
    rng = np.random.default_rng(batch)
    temps = rng.uniform(5.0, 40.0, size=(batch, n_zones))
    outdoor = rng.uniform(-25.0, 45.0, size=batch)
    wind = rng.uniform(-4.0, 15.0, size=batch)
    wind[::3] = -rng.uniform(0.0, 4.0, size=len(wind[::3]))
    wind[1::5] = 0.0
    gains = rng.uniform(-8000.0, 8000.0, size=(batch, n_zones))
    before = temps.copy()

    # Whole Euler sub-steps, partial ones, and a full control step.
    for duration in (45.0, 60.0, 100.0, 180.0, 900.0):
        expected = reference_step_batch(network, temps, outdoor, wind, gains, duration)
        columns = network.step_batch(temps, outdoor, wind, gains, duration)
        zones = network.step_batch(
            temps, zone_form(outdoor, n_zones), zone_form(wind, n_zones), gains, duration
        )
        assert_same_bits(columns, expected)
        assert_same_bits(zones, expected)
        assert columns is not temps and zones is not columns
    assert_same_bits(temps, before)


@pytest.mark.parametrize("batch", BATCH_SIZES)
def test_plant_evaluate_matches_reference_in_both_operand_forms(batch):
    buildings = [make_five_zone_building() for _ in range(min(batch, 3))]
    units = [buildings[b % len(buildings)].hvac_units for b in range(batch)]
    plant = BatchedHVACPlant(units, buildings[0].network.zone_names)
    n_zones = len(plant.zone_names)
    rng = np.random.default_rng(100 + batch)
    # Ordinary pairs, heating == cooling pairs and the off pair; a third of
    # the rows unoccupied.
    heating = rng.choice([15.0, 18.0, 20.0, 21.5, 22.0], size=batch)
    cooling = heating + rng.choice([0.0, 1.5, 4.0, 15.0], size=batch)
    occupied = rng.random(batch) < 2.0 / 3.0
    temps = switching_point_temperatures(rng, heating, cooling, deadband=0.1)

    expected = reference_evaluate(plant, temps, heating, cooling, occupied)
    for got in (
        plant.evaluate(temps, heating, cooling, occupied),
        plant.evaluate(
            temps,
            zone_form(heating, n_zones),
            zone_form(cooling, n_zones),
            zone_form(occupied, n_zones),
        ),
    ):
        for field in ("thermal_power_w", "electric_power_w", "heating_mask", "cooling_mask"):
            assert_same_bits(getattr(got, field), getattr(expected, field))
    # Every branch ran: heating, cooling, occupied idle and unoccupied idle.
    idle = ~expected.heating_mask & ~expected.cooling_mask
    if batch > 1:
        assert expected.heating_mask.any() and expected.cooling_mask.any()
        assert (idle & zone_form(occupied, n_zones)).any()
        assert (idle & ~zone_form(occupied, n_zones)).any()


@pytest.mark.parametrize("batch", (1, 7))
def test_kernels_reject_silently_broadcasting_operands(batch):
    network = make_five_zone_building().network
    n_zones = len(network.zones)
    plant = BatchedHVACPlant(
        [make_five_zone_building().hvac_units] * batch, network.zone_names
    )
    temps = np.full((batch, n_zones), 21.0)
    column = np.full(batch, 20.0)
    gains = np.zeros((batch, n_zones))

    with pytest.raises(ValueError, match="gains_w"):
        network.step_batch(temps, column, column, np.zeros(n_zones), 60.0)
    with pytest.raises(ValueError, match="gains_w"):
        network.step_batch(temps, column, column, np.zeros((batch + 1, n_zones)), 60.0)
    for bad in (np.full(batch + 1, 20.0), np.full((batch, 1), 20.0), np.float64(20.0)):
        with pytest.raises(ValueError, match="outdoor_temperature_c"):
            network.step_batch(temps, bad, column, gains, 60.0)
        with pytest.raises(ValueError, match="wind_speed_ms"):
            network.step_batch(temps, column, bad, gains, 60.0)
        with pytest.raises(ValueError, match="heating_setpoint_c"):
            plant.evaluate(temps, bad, column + 4.0, np.ones(batch, dtype=bool))
        with pytest.raises(ValueError, match="cooling_setpoint_c"):
            plant.evaluate(temps, column, bad, np.ones(batch, dtype=bool))
    for bad in (np.ones(n_zones + 1, dtype=bool), np.ones((batch, 2), dtype=bool)):
        with pytest.raises(ValueError, match="occupied"):
            plant.evaluate(temps, column, column + 4.0, bad)
    with pytest.raises(ValueError, match="zone_temperatures"):
        plant.evaluate(temps[:, :2], column, column + 4.0, np.ones(batch, dtype=bool))


def test_c_einsum_matches_numpy_einsum_bit_for_bit():
    network = make_five_zone_building().network
    coupling = network._coupling_matrix
    rng = np.random.default_rng(11)
    for _ in range(200):
        state = rng.uniform(-10.0, 45.0, size=len(network.zones))
        out = np.empty_like(state)
        c_einsum("ij,j->i", coupling, state, out=out)
        assert_same_bits(out, np.einsum("ij,j->i", coupling, state))
    for _ in range(20):
        states = rng.uniform(-10.0, 45.0, size=(64, len(network.zones)))
        out = np.empty_like(states)
        c_einsum("ij,bj->bi", coupling, states, out=out)
        assert_same_bits(out, np.einsum("ij,bj->bi", coupling, states))
        assert_same_bits(c_einsum("ij,bj->bi", coupling, states), out)


# --------------------------------------------------------------- environment
def test_batched_environment_matches_serial_episodes():
    spec = get_scenario("tucson/summer", days=1)
    seeds = [3, 14, 15]
    serial_envs = [spec.build_environment(seed=s) for s in seeds]
    batched = BatchedHVACEnvironment([spec.build_environment(seed=s) for s in seeds])

    obs_batch, _ = batched.reset()
    obs_serial = np.stack([env.reset()[0] for env in serial_envs])
    assert np.array_equal(obs_batch, obs_serial)

    rng = np.random.default_rng(2)
    for _ in range(serial_envs[0].num_steps):
        actions = rng.integers(0, serial_envs[0].action_space.n, size=len(seeds))
        batch_result = batched.step(actions)
        for i, env in enumerate(serial_envs):
            serial_result = env.step(int(actions[i]))
            assert np.array_equal(serial_result.observation, batch_result.observations[i])
            assert serial_result.reward == batch_result.rewards[i]
            for key, value in serial_result.info.items():
                batch_value = batch_result.info[key]
                if not np.isscalar(batch_value):
                    batch_value = batch_value[i]
                assert float(value) == float(batch_value), key
        assert batch_result.truncated == serial_result.truncated


@pytest.mark.parametrize("batch", BATCH_SIZES)
def test_batched_step_matches_reference_substeps(batch):
    """The env's term block equals the per-zone meter loop it replaced, bit for bit."""
    spec = get_scenario("pittsburgh/winter", days=1)
    cells = [spec.build_environment(seed=s) for s in range(min(batch, 7))]
    env = BatchedHVACEnvironment([cells[b % len(cells)] for b in range(batch)])
    rng = np.random.default_rng(200 + batch)
    # Rows are independent copies: negative wind and solar, unoccupied hours
    # at occupancy, and zones started on the thermostat's switching points.
    wind = env._disturbances[:, :, 2]
    solar = env._disturbances[:, :, 3]
    flip_wind = rng.random(wind.shape) < 0.3
    wind[flip_wind] *= -1.0
    dark = rng.random(solar.shape) < 0.3
    solar[dark] = -rng.uniform(0.0, 200.0, size=int(dark.sum()))
    env._occupied[rng.random(env._occupied.shape) < 0.2] ^= True
    env.reset()
    n_actions = len(env._pairs)
    actions = rng.integers(0, n_actions, size=batch)
    pairs = env._pairs[actions]
    env._temperatures = switching_point_temperatures(rng, pairs[:, 0], pairs[:, 1], deadband=0.1)

    for step in range(12):
        before = env._temperatures.copy()
        result = env.step(actions)
        heating, cooling = result.info["heating_setpoint"], result.info["cooling_setpoint"]
        temps, electric_kwh, heating_kwh, cooling_kwh = reference_substeps(
            env, before, heating, cooling, step
        )
        assert_same_bits(env._temperatures, temps)
        assert_same_bits(result.info["hvac_electric_energy_kwh"], electric_kwh)
        assert_same_bits(result.info["heating_energy_kwh"], heating_kwh)
        assert_same_bits(result.info["cooling_energy_kwh"], cooling_kwh)
        actions = rng.integers(0, n_actions, size=batch)


def test_batched_environment_rejects_mismatched_episodes():
    short = get_scenario("pittsburgh/winter", days=1).build_environment(seed=0)
    long = get_scenario("pittsburgh/winter", days=2).build_environment(seed=0)
    with pytest.raises(ValueError, match="same length"):
        BatchedHVACEnvironment([short, long])


def test_batched_environment_rejects_mismatched_gain_parameters():
    spec = get_scenario("pittsburgh/winter", days=1)
    reference = spec.build_environment(seed=0)
    modified = spec.build_environment(seed=1)
    zones = modified.building.zones
    zones[0] = dataclasses.replace(zones[0], equipment_gain_w=zones[0].equipment_gain_w + 1.0)
    with pytest.raises(ValueError, match="gain parameters"):
        BatchedHVACEnvironment([reference, modified])


#: Every per-episode array a batched env and its plant build at construction.
BATCH_ARRAYS = (
    "_disturbances", "_occupied", "_hours", "_initial_temperature", "_comfort_lower",
    "_comfort_upper", "_w_occupied", "_w_unoccupied", "_off_heating", "_off_cooling",
)
PLANT_ARRAYS = (
    "heating_cop", "cooling_cop", "gain_w_per_k", "deadband_k", "parasitic_power_w",
    "max_heating_power_w", "max_cooling_power_w",
)


def assert_same_layout(actual, expected):
    """Same bits, and the same strides and C order."""
    assert_same_bits(actual, expected)
    assert actual.strides == expected.strides
    assert actual.flags.c_contiguous == expected.flags.c_contiguous


@pytest.mark.parametrize("disturbance", ["clean", "rough_day"])
def test_tiled_batch_matches_a_batch_of_deep_copies(disturbance):
    """k environment objects tiled over B rows build and step like B distinct copies."""
    spec = get_scenario(f"pittsburgh/winter/office/{disturbance}", days=1)
    cells = [spec.build_environment(seed=s) for s in range(3)]
    rows = [cells[b % len(cells)] for b in range(10)]
    tiled = BatchedHVACEnvironment(rows)
    copied = BatchedHVACEnvironment([copy.deepcopy(env) for env in rows])
    assert tiled.batch_size == 10
    assert all(a is b for a, b in zip(tiled.environments, rows))
    for name in BATCH_ARRAYS:
        assert_same_layout(getattr(tiled, name), getattr(copied, name))
    for name in PLANT_ARRAYS:
        assert_same_layout(getattr(tiled.plant, name), getattr(copied.plant, name))

    tiled_obs, tiled_info = tiled.reset()
    copied_obs, copied_info = copied.reset()
    assert_same_bits(np.asarray(tiled_obs), np.asarray(copied_obs))
    rng = np.random.default_rng(9)
    for _ in range(tiled.num_steps):
        actions = rng.integers(0, len(tiled._pairs), size=tiled.batch_size)
        tiled_step, copied_step = tiled.step(actions), copied.step(actions)
        assert_same_bits(np.asarray(tiled_step.observations), np.asarray(copied_step.observations))
        assert_same_bits(tiled_step.rewards, copied_step.rewards)
        assert tiled_step.info.keys() == copied_step.info.keys()
        for key in tiled_step.info.keys():
            assert_same_bits(tiled_step.info[key], copied_step.info[key])


@pytest.mark.parametrize(
    "mismatch, message",
    [("length", "same length"), ("gain", "gain parameters"), ("capacitance", "capacitance")],
)
def test_tiled_batch_rejects_a_mismatch_after_repeated_rows(mismatch, message):
    spec = get_scenario("pittsburgh/winter", days=1)
    cells = [spec.build_environment(seed=s) for s in range(2)]
    if mismatch == "length":
        odd = get_scenario("pittsburgh/winter", days=2).build_environment(seed=0)
    else:
        odd = spec.build_environment(seed=5)
        if mismatch == "gain":
            zones = odd.building.zones
            gain = zones[0].equipment_gain_w + 1.0
            zones[0] = dataclasses.replace(zones[0], equipment_gain_w=gain)
        else:
            odd.building.network._capacitance = odd.building.network._capacitance * 2.0
    rows = [cells[b % len(cells)] for b in range(6)] + [odd, cells[0]]
    with pytest.raises(ValueError, match=message) as tiled_error:
        BatchedHVACEnvironment(rows)
    with pytest.raises(ValueError) as pair_error:
        BatchedHVACEnvironment([cells[0], odd])
    assert str(tiled_error.value) == str(pair_error.value)


# ------------------------------------------------------------------- planner
@pytest.fixture(scope="module")
def distillation_setup():
    environment = make_environment(days=2, seed=0)
    data = collect_historical_data(
        environment, RuleBasedAgent.from_config(environment), seed=1
    )
    model = ThermalDynamicsModel(hidden_sizes=(16,), seed=2)
    model.fit(data, epochs=3, seed=3)
    optimizer = RandomShootingOptimizer(
        dynamics_model=model,
        action_space=environment.action_space,
        reward_config=environment.config.reward,
        action_config=environment.config.actions,
        num_samples=50,
        horizon=5,
        seed=4,
    )
    sampler = AugmentedHistoricalSampler.from_dataset(data)
    generator = DecisionDatasetGenerator(
        optimizer=optimizer,
        sampler=sampler,
        action_pairs=environment.action_space.pairs,
        monte_carlo_runs=3,
        planning_horizon=5,
    )
    return optimizer, sampler, generator


def test_plan_batch_matches_serial_plans(distillation_setup):
    optimizer, sampler, _generator = distillation_setup
    inputs = sampler.sample(5, np.random.default_rng(6))
    states = inputs[:, 0]
    disturbances = inputs[:, 1:]
    occupied = disturbances[:, 4] > 0.5

    serial_rngs = spawn_rngs(99, len(inputs))
    batch_rngs = spawn_rngs(99, len(inputs))
    horizon = 5
    serial = [
        optimizer.plan(
            states[i],
            np.repeat(disturbances[i].reshape(1, -1), horizon, axis=0),
            [bool(occupied[i])] * horizon,
            rng=serial_rngs[i],
        )
        for i in range(len(inputs))
    ]
    batch = optimizer.plan_batch(
        states,
        np.broadcast_to(disturbances[:, None, :], (len(inputs), horizon, 5)),
        np.broadcast_to(occupied[:, None], (len(inputs), horizon)),
        rngs=batch_rngs,
    )
    for i, result in enumerate(serial):
        assert result.best_action_index == batch.best_action_indices[i]
        assert result.best_return == batch.best_returns[i]
        assert np.array_equal(result.best_sequence, batch.best_sequences[i])
        assert result.best_setpoints == batch.result(i).best_setpoints


def test_plan_populates_best_setpoints(distillation_setup):
    optimizer, sampler, _generator = distillation_setup
    policy_input = sampler.sample(1, np.random.default_rng(8))[0]
    forecast = np.repeat(policy_input[1:].reshape(1, -1), 5, axis=0)
    result = optimizer.plan(policy_input[0], forecast, [True] * 5, rng=7)
    assert result.best_setpoints is not None
    assert result.best_setpoints == tuple(
        optimizer.action_space.to_pair(result.best_action_index)
    )


# -------------------------------------------------------------- distillation
def test_batched_generate_identical_labels(distillation_setup):
    _optimizer, _sampler, generator = distillation_setup
    serial = generator.generate(12, seed=42, method="serial")
    batched = generator.generate(12, seed=42, method="batched")
    chunked = generator.generate(12, seed=42, method="batched", chunk_inputs=5)
    assert np.array_equal(serial.inputs, batched.inputs)
    assert np.array_equal(serial.action_labels, batched.action_labels)
    assert np.array_equal(serial.action_labels, chunked.action_labels)


def test_generate_rejects_unknown_method(distillation_setup):
    _optimizer, _sampler, generator = distillation_setup
    with pytest.raises(ValueError, match="Unknown method"):
        generator.generate(4, seed=0, method="warp")


# ------------------------------------------------------------------- runner
def _strip_timing(result: ExperimentResult) -> dict:
    data = result.to_dict()
    data.pop("mean_steps_per_second")
    for episode in data["episodes"]:
        episode.pop("wall_seconds")
        episode.pop("steps_per_second")
    return data


@pytest.mark.parametrize("backend,kwargs", [
    ("batched", {"batch_size": 2}),
    ("batched", {}),
    ("process", {"workers": 2}),
])
def test_runner_backends_identical_results(backend, kwargs):
    serial = ExperimentRunner(
        "pittsburgh/winter", episodes=3, base_seed=11, max_steps=48
    ).run("rule_based")
    other = ExperimentRunner(
        "pittsburgh/winter",
        episodes=3,
        base_seed=11,
        max_steps=48,
        backend=backend,
        **kwargs,
    ).run("rule_based")
    assert _strip_timing(other) == _strip_timing(serial)


def test_runner_backends_identical_for_stochastic_agent():
    serial = ExperimentRunner(
        "tucson/summer", episodes=4, base_seed=5, max_steps=24
    ).run("random")
    batched = ExperimentRunner(
        "tucson/summer", episodes=4, base_seed=5, max_steps=24, backend="batched"
    ).run("random")
    assert _strip_timing(batched) == _strip_timing(serial)


def test_batched_backend_requires_agent_name():
    from repro.agents import ConstantAgent

    runner = ExperimentRunner(
        "pittsburgh/winter", episodes=1, max_steps=8, backend="batched"
    )
    with pytest.raises(ValueError, match="registry agent name"):
        runner.run(ConstantAgent(20, 26))


def test_runner_rejects_unknown_backend():
    with pytest.raises(ValueError, match="Unknown backend"):
        ExperimentRunner("pittsburgh/winter", backend="quantum")


# ----------------------------------------------------- agent-side batching
def test_rule_based_action_plan_matches_select_action():
    env = get_scenario("pittsburgh/winter", days=2).build_environment(seed=3)
    agent = RuleBasedAgent.from_config(env)
    plan = agent.action_plan(env)
    assert len(plan) == env.num_steps
    observation, _ = env.reset()
    for step in range(env.num_steps):
        assert plan[step] == agent.select_action(observation, env, step), step


def test_rule_based_plan_respects_preheat_and_margin():
    env = get_scenario("tucson/summer", days=1).build_environment(seed=4)
    agent = RuleBasedAgent.from_config(env, preheat_hours=2.5, setback_margin=0.5)
    plan = agent.action_plan(env)
    reference = [agent.select_action(None, env, step) for step in range(env.num_steps)]
    assert plan.tolist() == reference


def test_select_actions_batch_default_matches_per_episode():
    from repro.agents.base import BaseAgent
    from repro.agents import make_agent

    spec = get_scenario("pittsburgh/winter", days=1)
    seeds = [1, 2, 3]
    environments = [spec.build_environment(seed=s) for s in seeds]
    agents = [make_agent("random", environment=e, seed=s) for e, s in zip(environments, seeds)]
    observations = np.stack([env.reset()[0] for env in environments])
    # The default implementation consumes each agent's RNG exactly like the
    # per-episode loop would; rebuild to compare the streams.
    batch = BaseAgent.select_actions_batch(agents, observations, environments, 0)
    rebuilt = [make_agent("random", environment=e, seed=s) for e, s in zip(environments, seeds)]
    reference = [a.select_action(observations[i], environments[i], 0) for i, a in enumerate(rebuilt)]
    assert batch.tolist() == reference


def test_dt_batched_backend_matches_serial():
    pipeline = {
        "num_decision_data": 48,
        "training_epochs": 5,
        "optimizer_samples": 32,
        "num_probabilistic_samples": 64,
    }
    kwargs = dict(episodes=2, base_seed=5, max_steps=48)
    serial = ExperimentRunner("pittsburgh/winter", **kwargs).run(
        "dt", agent_config={"pipeline": pipeline}
    )
    batched = ExperimentRunner("pittsburgh/winter", backend="batched", **kwargs).run(
        "dt", agent_config={"pipeline": pipeline}
    )
    assert _strip_timing(batched) == _strip_timing(serial)
