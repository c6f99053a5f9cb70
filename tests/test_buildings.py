"""The scalar building plant, pinned bit for bit against its numpy reference.

``ThermalNetwork.step`` and ``Building.step`` run their element-wise
arithmetic on Python floats.  The functions below are verbatim copies of the
numpy Euler loop and the per-zone ``HVACUnit.evaluate``/``ZoneGains`` loop
they replaced; every test compares the live plant with them on this machine.
Golden ``float.hex`` values would not do: the neighbour-sum ``einsum`` sums in
a CPU-dependent lane order, so AVX2 and AVX-512 machines disagree in the last
bit while each agrees with itself.
"""

import dataclasses

import numpy as np
import pytest

from repro.buildings.building import BuildingStepResult, make_five_zone_building
from repro.buildings.thermal import (
    ThermalState,
    ZoneGains,
    internal_gain_for_zone,
    solar_gain_for_zone,
)
from repro.env.disturbances import get_disturbance
from repro.env.hvac_env import make_environment
from repro.env.wrappers import EpisodeRecorder, NormalizedObservationWrapper

#: Control-step lengths (s): partial Euler sub-steps (45, 100 against 60 s)
#: and partial HVAC sub-steps (45, 60, 100 against 180 s) included.
DURATIONS = (45.0, 60.0, 100.0, 180.0, 900.0)


# ----------------------------------------------------------------- reference
def reference_thermal_step(
    network, state, outdoor_temperature_c, wind_speed_ms, gains, duration_seconds
):
    """The numpy Euler loop of ``ThermalNetwork.step`` before it moved to floats."""
    temps = state.temperatures.copy()
    n = len(network.zones)
    gain_vector = np.zeros(n, dtype=np.float64)
    for name, zone_gains in gains.items():
        gain_vector[network._index[name]] = zone_gains.total_w

    effective_ua = network._envelope_ua + network._infiltration_per_wind * max(wind_speed_ms, 0.0)

    remaining = float(duration_seconds)
    dt = network.substep_seconds
    while remaining > 1e-9:
        h = min(dt, remaining)
        envelope_flow = effective_ua * (outdoor_temperature_c - temps)
        inter_zone_flow = (
            np.einsum("ij,j->i", network._coupling_matrix, temps)
            - network._coupling_row_sums * temps
        )
        d_temps = (envelope_flow + inter_zone_flow + gain_vector) / network._capacitance
        temps = temps + h * d_temps
        remaining -= h
    return ThermalState(temps)


def reference_building_step(
    building,
    heating_setpoint_c,
    cooling_setpoint_c,
    outdoor_temperature_c,
    wind_speed_ms,
    solar_radiation_w_m2,
    occupant_count,
    occupied,
    duration_seconds,
):
    """The per-zone loop of ``Building.step`` before it moved to floats."""
    electric_energy_j = 0.0
    thermal_energy_j = 0.0
    heating_energy_j = 0.0
    cooling_energy_j = 0.0
    last_modes = {}

    remaining = float(duration_seconds)
    while remaining > 1e-9:
        interval = min(building.hvac_substep_seconds, remaining)
        gains = {}
        for zone in building.zones:
            idx = building.network.zone_index(zone.name)
            zone_temp = float(building.state.temperatures[idx])
            hvac = building.hvac_units[zone.name].evaluate(
                zone_temperature_c=zone_temp,
                heating_setpoint_c=heating_setpoint_c,
                cooling_setpoint_c=cooling_setpoint_c,
                occupied=occupied,
            )
            area_share = zone.floor_area_m2 / building._total_area
            gains[zone.name] = ZoneGains(
                hvac_thermal_w=hvac.thermal_power_w,
                solar_w=solar_gain_for_zone(zone, solar_radiation_w_m2),
                internal_w=internal_gain_for_zone(zone, occupant_count, occupied, area_share),
            )
            electric_energy_j += hvac.electric_power_w * interval
            thermal_energy_j += abs(hvac.thermal_power_w) * interval
            if hvac.mode == "heating":
                heating_energy_j += abs(hvac.thermal_power_w) * interval
            elif hvac.mode == "cooling":
                cooling_energy_j += abs(hvac.thermal_power_w) * interval
            last_modes[zone.name] = hvac.mode

        building._state = reference_thermal_step(
            building.network,
            building.state,
            outdoor_temperature_c=outdoor_temperature_c,
            wind_speed_ms=wind_speed_ms,
            gains=gains,
            duration_seconds=interval,
        )
        remaining -= interval

    temps = building.state.temperatures
    joules_to_kwh = 1.0 / 3.6e6
    return BuildingStepResult(
        zone_temperatures={
            name: float(temps[i]) for i, name in enumerate(building.network.zone_names)
        },
        controlled_zone_temperature=float(
            temps[building.network.zone_index(building.controlled_zone)]
        ),
        hvac_electric_energy_kwh=electric_energy_j * joules_to_kwh,
        hvac_thermal_energy_kwh=thermal_energy_j * joules_to_kwh,
        heating_energy_kwh=heating_energy_j * joules_to_kwh,
        cooling_energy_kwh=cooling_energy_j * joules_to_kwh,
        zone_modes=last_modes,
    )


# ------------------------------------------------------------ thermal network
def random_zone_gains(rng, network):
    return {
        name: ZoneGains(
            hvac_thermal_w=float(rng.uniform(-6000.0, 6000.0)),
            solar_w=float(rng.uniform(0.0, 2500.0)),
            internal_w=float(rng.uniform(0.0, 900.0)),
        )
        for name in network.zone_names
    }


@pytest.mark.parametrize("duration", DURATIONS)
def test_thermal_step_matches_the_numpy_loop_in_both_gain_forms(duration):
    network = make_five_zone_building().network
    rng = np.random.default_rng(int(duration))
    for _ in range(200):
        state = ThermalState(rng.uniform(5.0, 35.0, size=len(network.zones)))
        before = state.temperatures.copy()
        outdoor = float(rng.uniform(-25.0, 40.0))
        wind = float(rng.uniform(-4.0, 15.0))
        gains = random_zone_gains(rng, network)
        totals = [gains[name].total_w for name in network.zone_names]

        expected = reference_thermal_step(network, state, outdoor, wind, gains, duration)
        from_dict = network.step(state, outdoor, wind, gains, duration)
        from_totals = network.step(state, outdoor, wind, totals, duration)
        assert np.array_equal(from_dict.temperatures, expected.temperatures)
        assert np.array_equal(from_totals.temperatures, expected.temperatures)
        assert np.array_equal(state.temperatures, before), "the input state must not move"


def test_thermal_step_gives_zones_left_out_of_the_dict_no_gain():
    network = make_five_zone_building().network
    rng = np.random.default_rng(7)
    state = ThermalState(rng.uniform(15.0, 25.0, size=len(network.zones)))
    gains = random_zone_gains(rng, network)
    del gains[network.zone_names[2]]
    totals = [gains[name].total_w if name in gains else 0.0 for name in network.zone_names]

    expected = reference_thermal_step(network, state, 3.0, 5.0, gains, 900.0)
    assert np.array_equal(network.step(state, 3.0, 5.0, gains, 900.0).temperatures, expected.temperatures)
    assert np.array_equal(network.step(state, 3.0, 5.0, totals, 900.0).temperatures, expected.temperatures)


def test_thermal_step_rejects_a_wrong_number_of_zone_totals():
    network = make_five_zone_building().network
    with pytest.raises(ValueError, match="per-zone totals"):
        network.step(network.initial_state(), 0.0, 0.0, [0.0] * 4, 60.0)


# ------------------------------------------------------------------- building
def assert_same_step(fast, reference, fast_building, reference_building):
    for field in dataclasses.fields(BuildingStepResult):
        assert getattr(fast, field.name) == getattr(reference, field.name), field.name
    assert np.array_equal(fast_building.state.temperatures, reference_building.state.temperatures)


def twin_buildings(temperatures, disturbance=None):
    pair = [make_five_zone_building(), make_five_zone_building()]
    for building in pair:
        if disturbance is not None:
            get_disturbance(disturbance).realise(1, seed=0).apply_to_building(building)
        building._state = ThermalState(np.array(temperatures, dtype=float))
    return pair


@pytest.mark.parametrize("disturbance", [None, "weak_hvac"])
@pytest.mark.parametrize("duration", DURATIONS)
def test_building_step_matches_the_per_zone_loop(duration, disturbance):
    rng = np.random.default_rng([int(duration), int(disturbance is None)])
    modes, occupancy = set(), set()
    for case in range(60):
        fast_building, reference_building = twin_buildings(
            rng.uniform(12.0, 30.0, size=5), disturbance
        )
        heating = float(rng.uniform(15.0, 23.0))
        cooling = heating + float(rng.choice([0.0, rng.uniform(0.0, 8.0)]))
        occupied = bool(case % 2)
        # Two control steps, so the second starts from a state the plant made.
        for _ in range(2):
            conditions = dict(
                heating_setpoint_c=heating,
                cooling_setpoint_c=cooling,
                outdoor_temperature_c=float(rng.uniform(-20.0, 40.0)),
                wind_speed_ms=float(rng.uniform(-3.0, 15.0)),
                solar_radiation_w_m2=float(rng.uniform(-50.0, 1000.0)),
                occupant_count=float(rng.uniform(0.0, 30.0)) if occupied else 0.0,
                occupied=occupied,
                duration_seconds=duration,
            )
            reference = reference_building_step(reference_building, **conditions)
            fast = fast_building.step(**conditions)
            assert_same_step(fast, reference, fast_building, reference_building)
            modes.update(reference.zone_modes.values())
            occupancy.add(occupied)
    assert modes == {"heating", "cooling", "idle"}
    assert occupancy == {True, False}


def test_weak_hvac_twins_really_run_a_degraded_plant():
    clean, _ = twin_buildings([12.0] * 5)
    weak, _ = twin_buildings([12.0] * 5, "weak_hvac")
    conditions = (21.0, 24.0, -5.0, 3.0, 0.0, 0.0, False, 900.0)
    assert weak.step(*conditions).heating_energy_kwh < clean.step(*conditions).heating_energy_kwh


def test_building_step_rejects_heating_above_cooling_before_the_state_moves():
    building = make_five_zone_building()
    building.reset(18.0)
    before = building.state.temperatures.copy()
    with pytest.raises(ValueError, match="heating setpoint must not exceed cooling setpoint"):
        building.step(24.0, 20.0, -5.0, 3.0, 200.0, 10.0, True, 900.0)
    assert np.array_equal(building.state.temperatures, before)


# --------------------------------------------------------------------- resets
def test_building_reset_rejects_jitter_without_an_rng():
    building = make_five_zone_building()
    with pytest.raises(ValueError, match="rng"):
        building.reset(20.0, jitter_std=0.5)
    jittered = building.reset(20.0, jitter_std=0.5, rng=np.random.default_rng(0))
    assert any(value != 20.0 for value in jittered.values())


def test_environment_reset_rejects_a_seed():
    environment = make_environment(days=1, seed=0)
    with pytest.raises(ValueError, match="config.seed"):
        environment.reset(seed=1)
    observation, info = environment.reset()
    fresh, fresh_info = make_environment(days=1, seed=0).reset()
    assert np.array_equal(observation, fresh)
    assert info == fresh_info


def test_wrapper_resets_reject_a_seed():
    environment = make_environment(days=1, seed=0)
    expected, _ = make_environment(days=1, seed=0).reset()
    normalized = NormalizedObservationWrapper(environment)
    recorder = EpisodeRecorder(environment)
    for wrapper in (normalized, recorder):
        with pytest.raises(ValueError, match="config.seed"):
            wrapper.reset(seed=2)

    observation, _ = normalized.reset()
    assert np.array_equal(observation, normalized.normalize(expected))
    observation, _ = recorder.reset()
    assert np.array_equal(observation, expected)
    assert len(recorder.record.observations) == 1
