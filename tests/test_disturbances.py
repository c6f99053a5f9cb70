"""Disturbance/fault layer: clean bit-identity, determinism, robustness goldens.

The contract under test, in order of importance:

1. a disabled or zero-magnitude disturbance profile is **bit-identical** to
   the clean environment — scalar and batched, across every runner backend;
2. identical ``(DisturbanceSpec, seed)`` pairs realise identical fault
   schedules and produce identical telemetry across runs, backends and
   serving topologies (shards=1 vs sharded fleet);
3. each fault class does what its name says (dropout holds the last report,
   stuck dampers freeze setpoints, DR relaxes them, degradation weakens the
   plant, surprises scale people but not the schedule);
4. the robustness table of the classical controllers is pinned to committed
   golden figures, so controller or environment drift fails loudly.

Both environments apply tiers 3-4 through one ``FaultLayer``, so the
scalar-vs-batched suites compare the layer with itself.  The reference below
is the scalar environment's fault code from before the layer, kept verbatim;
``TestFaultLayerReference`` pins the layer against it at B=1 and in a mixed
batch.
"""

from pathlib import Path
from typing import Tuple

import numpy as np
import pytest

from repro.analysis.engine import run_lint
from repro.data import InfoBatch
from repro.env import (
    DISTURBANCES,
    BatchedHVACEnvironment,
    DisturbanceSpec,
    SetpointSpace,
    available_disturbances,
    get_disturbance,
    make_environment,
)
from repro.env.disturbances import FaultLayer
from repro.experiments.runner import ExperimentRunner
from repro.experiments.scenarios import ScenarioSpec, scenario_grid
from repro.fleet import FleetGroup, FleetLoop
from repro.serving import ShardedPolicyServer
from repro.utils.config import ActionSpaceConfig, ExperimentConfig

DAYS = 1


def scalar_env(seed=0, disturbance=None, **kwargs):
    return make_environment(
        city="pittsburgh", season="winter", days=DAYS, seed=seed,
        disturbance=disturbance, **kwargs,
    )


def rollout(env, stride=7):
    """Deterministic action-cycling rollout; returns (observations, rewards, infos)."""
    obs, _ = env.reset()
    observations = [np.asarray(obs).copy()]
    rewards, infos = [], []
    n = len(env.action_space.pairs)
    for t in range(env.num_steps):
        result = env.step((t * stride) % n)
        observations.append(np.asarray(result.observation).copy())
        rewards.append(result.reward)
        infos.append(dict(result.info))
    return np.array(observations), np.array(rewards), infos


def episode_dicts(result):
    """Episode payloads with the wall-clock timing fields removed."""
    rows = []
    for episode in result.episodes:
        row = episode.to_dict()
        row.pop("wall_seconds", None)
        row.pop("steps_per_second", None)
        rows.append(row)
    return rows


def rollout_batched(envs, stride=7):
    batch = BatchedHVACEnvironment(envs)
    obs, _ = batch.reset()
    observations = [np.asarray(obs).copy()]
    rewards, infos = [], []
    n = len(batch._pairs)
    for t in range(batch.num_steps):
        actions = np.full(batch.batch_size, (t * stride) % n, dtype=np.int64)
        result = batch.step(actions)
        observations.append(np.asarray(result.observations).copy())
        rewards.append(result.rewards.copy())
        infos.append(result.info)
    return np.array(observations), np.array(rewards), infos


# ----------------------------------------------------------------- reference
class ReferenceFaults:
    """One episode's tiers 3-4 as the scalar environment applied them before
    ``FaultLayer``: the two methods are verbatim, ``emit``/``step`` repeat
    their call sites in ``observation()``/``step()``."""

    def __init__(self, schedule, config: ExperimentConfig):
        self._disturbance = schedule
        self.config = config
        self._reported_zone = None
        self._fault_last = None
        self._fault_since_change = 0

    def emit(self, zone: float, emission_index: int) -> float:
        schedule = self._disturbance
        if schedule.zone_noise is not None or schedule.sensor_dropped is not None:
            zone = self._report_zone_temperature(zone, emission_index)
        return zone

    def step(self, heating: int, cooling: int, step: int):
        schedule = self._disturbance
        stuck_flag = dr_flag = False
        if schedule.action_active:
            heating, cooling, stuck_flag, dr_flag = self._apply_action_faults(
                heating, cooling, step
            )
        dropped = float(
            bool(schedule.sensor_dropped is not None and schedule.sensor_dropped[step])
        )
        return heating, cooling, (dropped, float(stuck_flag), float(dr_flag))

    def _report_zone_temperature(self, true_value: float, emission_index: int) -> float:
        """The sensor's report for one observation emission (noise + dropout).

        ``emission_index`` counts observation emissions (0 at reset, ``t + 1``
        after step ``t``); faults are precomputed per emission, so repeated
        calls at the same index are idempotent.
        """
        schedule = self._disturbance
        reported = true_value
        if schedule.zone_noise is not None:
            reported = true_value + schedule.zone_noise[emission_index]
        if (
            schedule.sensor_dropped is not None
            and schedule.sensor_dropped[emission_index]
            and self._reported_zone is not None
        ):
            reported = self._reported_zone
        self._reported_zone = reported
        return float(reported)

    def _apply_action_faults(
        self, heating: int, cooling: int, step: int
    ) -> Tuple[int, int, bool, bool]:
        """Rewrite the commanded setpoints through the action-level faults.

        Order (mirrored exactly by the batched env): demand-response setback,
        then heat-pump minimum-cycle hold, then stuck damper.  Returns the
        applied pair plus (actuator-stuck, demand-response) telemetry flags;
        ``actuator_stuck`` covers both cycling holds and stuck dampers —
        every case where the plant did not follow the commanded pair.
        """
        schedule = self._disturbance
        dr_flag = bool(schedule.dr_active is not None and schedule.dr_active[step])
        if dr_flag:
            setback = schedule.spec.demand_response_setback_c
            heating, cooling = self.config.actions.clip(
                heating - setback, cooling + setback
            )
        stuck_flag = False
        if self._fault_last is not None:
            limit = schedule.spec.cycling_limit_steps
            if (
                limit > 0
                and self._fault_since_change < limit
                and (heating, cooling) != self._fault_last
            ):
                heating, cooling = self._fault_last
                stuck_flag = True
            if schedule.stuck is not None and schedule.stuck[step]:
                heating, cooling = self._fault_last
                stuck_flag = True
        pair = (heating, cooling)
        if self._fault_last is None or pair != self._fault_last:
            self._fault_since_change = 0
        else:
            self._fault_since_change += 1
        self._fault_last = pair
        return heating, cooling, stuck_flag, dr_flag


# ---------------------------------------------------------- clean bit-identity
class TestCleanEquivalence:
    def test_scalar_disabled_profiles_are_bit_identical(self):
        base_obs, base_rew, base_infos = rollout(scalar_env(seed=3))
        for disturbance in (
            "clean",
            DisturbanceSpec(),
            DisturbanceSpec(sensor_noise_std=0.0, stuck_damper_rate=0.0),
        ):
            obs, rew, infos = rollout(scalar_env(seed=3, disturbance=disturbance))
            assert np.array_equal(base_obs, obs)
            assert np.array_equal(base_rew, rew)
            assert infos == base_infos

    def test_clean_env_has_no_fault_telemetry_keys(self):
        env = scalar_env(seed=1)
        env.reset()
        info = env.step(0).info
        for key in ("sensor_dropped", "actuator_stuck", "demand_response"):
            assert key not in info

    def test_batched_disabled_profiles_are_bit_identical(self):
        seeds = (1, 2, 3)
        base = rollout_batched([scalar_env(seed=s) for s in seeds])
        spec = rollout_batched(
            [scalar_env(seed=s, disturbance="clean") for s in seeds]
        )
        assert np.array_equal(base[0], spec[0])
        assert np.array_equal(base[1], spec[1])
        # clean batches carry no fault columns either
        for info in spec[2]:
            assert "sensor_dropped" not in info

    @pytest.mark.parametrize("backend", ["serial", "batched", "process"])
    def test_runner_backends_match_pre_disturbance_results(self, backend):
        plain = ScenarioSpec.from_name("pittsburgh/winter/office", days=DAYS)
        clean = ScenarioSpec.from_name("pittsburgh/winter/office/clean", days=DAYS)
        assert clean == plain  # "clean" is the default, not a distinct cell
        kwargs = dict(episodes=3, base_seed=5, backend=backend, workers=2)
        result_plain = ExperimentRunner(plain, **kwargs).run("hysteresis")
        result_clean = ExperimentRunner(clean, **kwargs).run("hysteresis")
        assert episode_dicts(result_plain) == episode_dicts(result_clean)

    @pytest.mark.parametrize("backend", ["batched", "process"])
    def test_runner_backends_match_serial_under_faults(self, backend):
        spec = ScenarioSpec.from_name("pittsburgh/winter/office/rough_day", days=DAYS)
        kwargs = dict(episodes=3, base_seed=5, workers=2)
        serial = ExperimentRunner(spec, backend="serial", **kwargs).run("pid")
        other = ExperimentRunner(spec, backend=backend, **kwargs).run("pid")
        for a, b in zip(serial.episodes, other.episodes):
            assert a.total_reward == b.total_reward
            assert a.total_energy_kwh == b.total_energy_kwh
            assert a.comfort_violation_steps == b.comfort_violation_steps


# -------------------------------------------------------------- determinism
class TestScheduleDeterminism:
    def test_identical_spec_and_seed_realise_identical_schedules(self):
        spec = DISTURBANCES["rough_day"]
        a = spec.realise(96, seed=42)
        b = spec.realise(96, seed=42)
        for field in ("zone_noise", "sensor_dropped", "stuck", "dr_active"):
            left, right = getattr(a, field), getattr(b, field)
            assert (left is None) == (right is None)
            if left is not None:
                assert np.array_equal(left, right)

    def test_component_streams_are_independent(self):
        # Enabling an unrelated fault class must not shift another's schedule.
        stuck_only = DisturbanceSpec(stuck_damper_rate=0.1).realise(96, seed=7)
        combined = DisturbanceSpec(
            stuck_damper_rate=0.1, sensor_noise_std=0.5, demand_response_rate=0.1
        ).realise(96, seed=7)
        assert np.array_equal(stuck_only.stuck, combined.stuck)

    def test_different_seeds_differ(self):
        spec = DISTURBANCES["sensor_noise"]
        assert not np.array_equal(
            spec.realise(96, seed=0).zone_noise, spec.realise(96, seed=1).zone_noise
        )

    def test_telemetry_identical_across_runs(self):
        spec = ScenarioSpec.from_name("pittsburgh/winter/office/rough_day", days=DAYS)
        kwargs = dict(episodes=2, base_seed=9, backend="serial")
        first = ExperimentRunner(spec, **kwargs).run("hysteresis")
        second = ExperimentRunner(spec, **kwargs).run("hysteresis")
        assert episode_dicts(first) == episode_dicts(second)

    def test_reprolint_rng_rule_covers_disturbances_with_empty_baseline(self):
        import repro.env.disturbances as module

        result = run_lint(Path(module.__file__), only=("REP005",))
        assert result.file_count == 1
        assert result.findings == []  # empty baseline: nothing absorbed either
        assert result.baselined_count == 0
        assert result.ok


class TestFleetShardDeterminism:
    """shards=1 vs sharded serving produce identical fault-fleet telemetry."""

    def make_loop(self, num_shards):
        from tests.test_fleet import tree_policy_for

        group = FleetGroup.from_scenario(
            "pittsburgh/winter/office/rough_day",
            policy_id="inc",
            num_buildings=8,
            base_seed=0,
            days=DAYS,
        )
        policy = tree_policy_for(group.env.environments[0], seed=11)
        server = ShardedPolicyServer(
            store=False, num_shards=num_shards, timeout=10.0, heartbeat_interval=None
        )
        try:
            server.register("inc", policy)
            loop = FleetLoop(server, [group])
            loop.run(4)
        finally:
            server.close()
        return loop

    def test_sharded_fleet_telemetry_bit_identical(self):
        local = self.make_loop(num_shards=1)
        sharded = self.make_loop(num_shards=2)
        assert local.telemetry.lost_ticks == sharded.telemetry.lost_ticks == 0
        assert local.telemetry.equals(sharded.telemetry)


# ----------------------------------------------------------- fault behaviour
class TestFaultBehaviour:
    def test_sensor_dropout_repeats_last_report(self):
        env = scalar_env(seed=2, disturbance="sensor_dropout")
        schedule = env.disturbance
        assert schedule is not None and schedule.sensor_dropped is not None
        assert not schedule.sensor_dropped[0]
        obs, _ = env.reset()
        last = float(np.asarray(obs)[0])
        for t in range(env.num_steps):
            result = env.step(0)
            reported = float(np.asarray(result.observation)[0])
            if schedule.sensor_dropped[t + 1]:
                assert reported == last
            # the info flag records the dropout state at the *step* index
            assert result.info["sensor_dropped"] == float(schedule.sensor_dropped[t])
            last = reported

    def test_stuck_damper_freezes_applied_setpoints(self):
        env = scalar_env(seed=4, disturbance="stuck_damper")
        schedule = env.disturbance
        assert schedule is not None and schedule.stuck is not None
        env.reset()
        pairs = env.action_space.pairs
        previous = None
        for t in range(env.num_steps):
            action = t % len(pairs)
            info = env.step(action).info
            applied = (info["heating_setpoint"], info["cooling_setpoint"])
            if t > 0 and schedule.stuck[t]:
                assert applied == previous
                assert info["actuator_stuck"] == 1.0
            previous = applied

    def test_demand_response_relaxes_setpoints(self):
        spec = DisturbanceSpec(
            demand_response_rate=0.2, demand_response_steps=4,
            demand_response_setback_c=2.0,
        )
        env = scalar_env(seed=6, disturbance=spec)
        schedule = env.disturbance
        assert schedule is not None and schedule.dr_active is not None
        env.reset()
        comfortable = env.action_space.to_index(21, 23)
        clip = env.config.actions.clip
        for t in range(env.num_steps):
            info = env.step(comfortable).info
            if schedule.dr_active[t] and not info["actuator_stuck"]:
                assert info["demand_response"] == 1.0
                assert (info["heating_setpoint"], info["cooling_setpoint"]) == clip(
                    21 - 2.0, 23 + 2.0
                )

    def test_cycling_limit_holds_pairs_for_minimum_steps(self):
        env = scalar_env(seed=0, disturbance="short_cycle")
        env.reset()
        limit = DISTURBANCES["short_cycle"].cycling_limit_steps
        pairs = env.action_space.pairs
        applied = []
        for t in range(4 * limit):
            info = env.step(t % len(pairs)).info
            applied.append((info["heating_setpoint"], info["cooling_setpoint"]))
        changes = [i for i in range(1, len(applied)) if applied[i] != applied[i - 1]]
        assert all(b - a >= limit for a, b in zip(changes, changes[1:]))

    def test_weak_hvac_degrades_the_plant(self):
        clean = scalar_env(seed=0)
        weak = scalar_env(seed=0, disturbance="weak_hvac")
        factor = DISTURBANCES["weak_hvac"].capacity_factor
        for name, unit in clean.building.hvac_units.items():
            degraded = weak.building.hvac_units[name]
            assert degraded.proportional_gain_w_per_k == pytest.approx(
                unit.proportional_gain_w_per_k * factor
            )
            assert degraded.zone.max_heating_power_w == pytest.approx(
                unit.zone.max_heating_power_w * factor
            )

    def test_occupancy_surprise_scales_people_not_schedule(self):
        spec = DisturbanceSpec(
            occupancy_surprise_rate=0.05, occupancy_surprise_steps=8,
            occupancy_surprise_scale=3.0,
        )
        clean = scalar_env(seed=8)
        surprised = scalar_env(seed=8, disturbance=spec)
        scale = surprised.disturbance.occupancy_scale
        assert scale is not None
        assert np.array_equal(surprised.occupancy.occupied, clean.occupancy.occupied)
        assert np.array_equal(
            surprised.occupancy.counts, clean.occupancy.counts * scale
        )

    def test_weather_events_shift_outdoor_temperature_only(self):
        spec = DisturbanceSpec(
            weather_event_rate=0.1, weather_event_steps=12, weather_shift_c=8.0
        )
        clean = scalar_env(seed=12)
        hot = scalar_env(seed=12, disturbance=spec)
        shift = hot.disturbance.weather_shift
        assert shift is not None and shift.any()
        assert np.array_equal(
            hot.weather.outdoor_temperature, clean.weather.outdoor_temperature + shift
        )
        assert np.array_equal(hot.weather.solar_radiation, clean.weather.solar_radiation)

    def test_batched_matches_scalar_under_mixed_faults(self):
        profiles = ["rough_day", None, "sensor_dropout", "short_cycle"]
        seeds = (1, 2, 3, 4)
        scalar_envs = [scalar_env(seed=s, disturbance=p) for s, p in zip(seeds, profiles)]
        batch_envs = [scalar_env(seed=s, disturbance=p) for s, p in zip(seeds, profiles)]
        scalar_results = [rollout(env) for env in scalar_envs]
        batch_obs, batch_rew, batch_infos = rollout_batched(batch_envs)
        for i, (obs, rew, infos) in enumerate(scalar_results):
            assert np.array_equal(obs, batch_obs[:, i])
            assert np.array_equal(rew, batch_rew[:, i])
            for t, info in enumerate(infos):
                for key in ("sensor_dropped", "actuator_stuck", "demand_response"):
                    assert info.get(key, 0.0) == batch_infos[t][key][i]

    def test_info_batch_carries_fault_columns(self):
        batch = BatchedHVACEnvironment(
            [scalar_env(seed=1, disturbance="rough_day"), scalar_env(seed=2)]
        )
        batch.reset()
        info = batch.step(np.zeros(2, dtype=np.int64)).info
        assert isinstance(info, InfoBatch)
        for key in ("sensor_dropped", "actuator_stuck", "demand_response"):
            assert key in info
            assert info[key].shape == (2,)


# -------------------------------------------------- FaultLayer vs reference
#: DR, a cycling limit and stuck dampers in one episode, plus both sensor
#: faults; no preset combines the three action faults, so only this profile
#: pins their order.
COMBINED = DisturbanceSpec(
    name="dr_cycle_stuck",
    sensor_noise_std=0.2,
    sensor_dropout_rate=0.1,
    stuck_damper_rate=0.04,
    stuck_damper_steps=3,
    cycling_limit_steps=3,
    demand_response_rate=0.04,
    demand_response_steps=6,
    demand_response_setback_c=2.0,
)
REFERENCE_STEPS = 672
FAULT_COLUMNS = ("sensor_dropped", "actuator_stuck", "demand_response")


def drive_layer_and_reference(specs, seeds, config=None, command_dtype=float):
    """Step a ``FaultLayer`` over ``specs`` and one reference per episode.

    Commands and true zone temperatures are seeded random columns; the
    commands reach the layer as ``command_dtype`` (``int`` as the scalar env
    passes them, ``float`` as the batched env does).  Returns per-step
    (applied heating, cooling, three flags, report) rows for both.
    """
    config = config or ExperimentConfig()
    space = SetpointSpace(config.actions)
    schedules = [spec.realise(REFERENCE_STEPS, seed) for spec, seed in zip(specs, seeds)]
    layer = FaultLayer.build(schedules, space)
    references = [None if s is None else ReferenceFaults(s, config) for s in schedules]
    rng = np.random.default_rng(sum(seeds))
    pairs = np.array(space.pairs)
    commands = pairs[rng.integers(0, len(pairs), size=(REFERENCE_STEPS, len(specs)))]
    zones = rng.uniform(15.0, 27.0, size=(REFERENCE_STEPS + 1, len(specs)))

    layer_rows, reference_rows = [], []
    layer.reset()
    layer_reports = layer.report(zones[0], 0)
    reference_reports = [
        zones[0, i] if ref is None else ref.emit(float(zones[0, i]), 0)
        for i, ref in enumerate(references)
    ]
    for t in range(REFERENCE_STEPS):
        heating, cooling, columns = layer.apply(
            commands[t, :, 0].astype(command_dtype),
            commands[t, :, 1].astype(command_dtype),
            t,
        )
        next_reports = layer.report(zones[t + 1], t + 1)
        for i, ref in enumerate(references):
            layer_rows.append(
                (heating[i], cooling[i], *(columns[k][i] for k in FAULT_COLUMNS),
                 layer_reports[i])
            )
            if ref is None:
                reference_rows.append(
                    (commands[t, i, 0], commands[t, i, 1], 0.0, 0.0, 0.0,
                     reference_reports[i])
                )
                reference_reports[i] = zones[t + 1, i]
                continue
            h, c, flags = ref.step(int(commands[t, i, 0]), int(commands[t, i, 1]), t)
            reference_rows.append((h, c, *flags, reference_reports[i]))
            reference_reports[i] = ref.emit(float(zones[t + 1, i]), t + 1)
        layer_reports = next_reports
    return layer_rows, reference_rows, schedules


def assert_rows_identical(layer_rows, reference_rows):
    assert len(layer_rows) == len(reference_rows)
    for got, want in zip(layer_rows, reference_rows):
        assert got == want
        assert float(got[-1]).hex() == float(want[-1]).hex()  # bit for bit


class TestFaultLayerReference:
    """The layer against the replaced scalar code, element for element."""

    @pytest.mark.parametrize("preset", sorted(DISTURBANCES))
    def test_batch_of_one_matches_the_scalar_reference(self, preset):
        spec = DISTURBANCES[preset]
        if not spec.enabled:
            assert FaultLayer.build([spec.realise(REFERENCE_STEPS, 0)], SetpointSpace()) is None
            return
        layer_rows, reference_rows, _ = drive_layer_and_reference(
            [spec], [5], command_dtype=int
        )
        assert_rows_identical(layer_rows, reference_rows)

    def test_mixed_batch_of_every_preset_matches_the_reference(self):
        specs = [DISTURBANCES[name] for name in sorted(DISTURBANCES)] + [COMBINED]
        seeds = list(range(11, 11 + len(specs)))
        layer_rows, reference_rows, schedules = drive_layer_and_reference(specs, seeds)
        assert any(s is None for s in schedules)  # the clean row rides along
        assert_rows_identical(layer_rows, reference_rows)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_combined_action_faults_keep_their_order(self, seed):
        layer_rows, reference_rows, (schedule,) = drive_layer_and_reference(
            [COMBINED], [seed]
        )
        assert_rows_identical(layer_rows, reference_rows)
        # The tiers really met: DR steps that were also held (by the cycling
        # limit or a stuck damper), and holds outside stuck windows.
        dr_and_held = [r for r in layer_rows if r[3] == 1.0 and r[4] == 1.0]
        cycling_holds = [
            t for t, r in enumerate(layer_rows) if r[3] == 1.0 and not schedule.stuck[t]
        ]
        assert dr_and_held and cycling_holds

    def test_non_default_action_table(self):
        config = ExperimentConfig(
            actions=ActionSpaceConfig(
                heating_min=17, heating_max=26, cooling_min=19, cooling_max=24
            )
        )
        layer_rows, reference_rows, _ = drive_layer_and_reference(
            [COMBINED, DISTURBANCES["demand_response"]], [3, 4], config=config
        )
        assert_rows_identical(layer_rows, reference_rows)

    def test_schedules_must_share_the_episode_length(self):
        short = DISTURBANCES["rough_day"].realise(96, seed=0)
        long = DISTURBANCES["rough_day"].realise(192, seed=0)
        with pytest.raises(ValueError, match="episode length"):
            FaultLayer([short, long], SetpointSpace())
        with pytest.raises(ValueError, match="faulted episode"):
            FaultLayer([None, None], SetpointSpace())


# ------------------------------------------------------------ setpoint table
def action_configs():
    """Action tables around the default, degenerate and inverted ones included."""
    configs = []
    for heating_min in (14, 15, 18):
        for heating_span in (0, 1, 4, 8, 14):
            for cooling_min in (heating_min - 4, heating_min, heating_min + 3, 25):
                for cooling_span in (0, 2, 9):
                    heating_max = heating_min + heating_span
                    cooling_max = cooling_min + cooling_span
                    if cooling_max < heating_min:
                        continue  # empty table: SetpointSpace rejects n = 0
                    configs.append(
                        ActionSpaceConfig(heating_min, heating_max, cooling_min, cooling_max)
                    )
    return configs


def setpoint_grid(config):
    """Every (heating, cooling) on a half-degree grid 2 °C past the bounds."""
    low = min(config.heating_min, config.cooling_min) - 2.0
    high = max(config.heating_max, config.cooling_max) + 2.0
    values = np.arange(low, high + 0.5, 0.5)  # .5 ties included
    heating, cooling = np.meshgrid(values, values, indexing="ij")
    return heating.ravel(), cooling.ravel()


class TestSetpointSpace:
    def test_grid_covers_inverted_and_degenerate_tables(self):
        configs = action_configs()
        assert len(configs) == 150
        assert any(c.cooling_max < c.heating_max for c in configs)
        assert any(c.cooling_min < c.heating_min for c in configs)
        assert any(len(c.joint_actions()) == 1 for c in configs)

    def test_clip_lands_in_the_table_and_clip_arrays_matches_it(self):
        for config in action_configs():
            space = SetpointSpace(config)
            table = {pair: i for i, pair in enumerate(space.pairs)}
            heating, cooling = setpoint_grid(config)
            want = [config.clip(h, c) for h, c in zip(heating, cooling)]
            assert all(pair in table for pair in want), config
            got_h, got_c = space.clip_arrays(heating, cooling)
            assert np.array_equal(got_h, [h for h, _ in want]), config
            assert np.array_equal(got_c, [c for _, c in want]), config
            assert np.array_equal(
                space.indices(got_h, got_c), [table[pair] for pair in want]
            ), config

    def test_clip_arrays_rounds_half_to_even_like_round(self):
        space = SetpointSpace()
        ties = np.array([16.5, 17.5, 18.5, 19.5, 20.5, 21.5, 22.5])
        heating, cooling = space.clip_arrays(ties, ties + 5.0)
        assert heating.tolist() == [round(v) for v in ties]
        assert cooling.tolist() == [round(v + 5.0) for v in ties]

    def test_indices_round_trips_every_pair(self):
        for config in action_configs():
            space = SetpointSpace(config)
            table = np.array(space.pairs)
            expected = np.arange(space.n)
            for dtype in (np.int64, float):
                found = space.indices(table[:, 0].astype(dtype), table[:, 1].astype(dtype))
                assert found.dtype == np.int64
                assert np.array_equal(found, expected)
            assert [space.to_pair(i) for i in found] == space.pairs

    @pytest.mark.parametrize(
        "pair",
        [(24, 22), (14, 25), (15, 31), (24, 30), (21.5, 25.0), (21.0, 25.25)],
    )
    def test_indices_rejects_a_pair_outside_the_table(self, pair):
        space = SetpointSpace()  # heating 15..23, cooling 21..30
        heating = np.array([21.0, pair[0], 15.0])
        cooling = np.array([25.0, pair[1], 30.0])
        with pytest.raises(ValueError, match="outside the action table"):
            space.indices(heating, cooling)


# ------------------------------------------------------------------ scenarios
class TestScenarioIntegration:
    def test_four_part_names_round_trip(self):
        spec = ScenarioSpec.from_name(
            "pittsburgh/winter/office/sensor_dropout", days=DAYS
        )
        assert spec.disturbance == "sensor_dropout"
        assert spec.name == "pittsburgh/winter/office/sensor_dropout"
        assert ScenarioSpec.from_name(spec.name, days=DAYS) == spec

    def test_unknown_disturbance_is_rejected(self):
        with pytest.raises(ValueError, match="Unknown disturbance"):
            ScenarioSpec.from_name("pittsburgh/winter/office/nope", days=DAYS)

    def test_grid_is_unchanged_by_default_and_expands_on_request(self):
        default = scenario_grid(cities=["pittsburgh"], seasons=["winter"])
        assert all(s.disturbance == "clean" for s in default)
        expanded = scenario_grid(
            cities=["pittsburgh"], seasons=["winter"],
            disturbances=["clean", "rough_day"],
        )
        assert len(expanded) == 2 * len(default)

    def test_presets_registry(self):
        assert set(available_disturbances()) == set(DISTURBANCES)
        assert get_disturbance("clean").enabled is False
        assert get_disturbance(DisturbanceSpec(sensor_noise_std=1.0)).enabled
        with pytest.raises(ValueError, match="Unknown disturbance"):
            get_disturbance("nope")


# ----------------------------------------------------------- golden figures
#: Committed robustness goldens: (mean_total_reward, mean_energy_kwh,
#: mean_comfort_violation_rate) for pittsburgh/winter/office, days=1,
#: episodes=1, base_seed=0, serial backend.  Everything here is exactly
#: deterministic, so the tolerance only absorbs float-repr rounding.
GOLDEN_ROBUSTNESS = {
    ("rule_based", "clean"): (-53.2519655772, 18.2175475665, 0.1875),
    ("hysteresis", "clean"): (-7.9493762962, 24.6428062803, 0.0833333333),
    ("pid", "clean"): (-10.5621405552, 25.7507480140, 0.0833333333),
    ("ema", "clean"): (-4.9693762962, 19.3847163975, 0.0833333333),
    ("rule_based", "sensor_noise"): (-53.2519655772, 18.2175475665, 0.1875),
    ("hysteresis", "sensor_noise"): (-7.3193762962, 27.4922536660, 0.0833333333),
    ("pid", "sensor_noise"): (-10.4621405552, 34.1646196447, 0.0833333333),
    ("ema", "sensor_noise"): (-5.0393762962, 19.9299023238, 0.0833333333),
    ("rule_based", "weak_hvac"): (-64.6173511071, 16.7129528749, 0.375),
    ("hysteresis", "weak_hvac"): (-16.6390162259, 21.2521482453, 0.2291666667),
    ("pid", "weak_hvac"): (-18.6320893059, 21.9045727381, 0.1875),
    ("ema", "weak_hvac"): (-14.0990162259, 16.9362963478, 0.2291666667),
    ("rule_based", "rough_day"): (-53.1993362095, 17.7549789653, 0.25),
    ("hysteresis", "rough_day"): (-9.9509308215, 23.2148562702, 0.125),
    ("pid", "rough_day"): (-12.8602685816, 26.6039345086, 0.1041666667),
    ("ema", "rough_day"): (-7.6709308215, 19.0857449387, 0.125),
}


class TestGoldenRobustnessTable:
    @pytest.mark.parametrize("fault", ["clean", "sensor_noise", "weak_hvac", "rough_day"])
    def test_classical_agents_match_goldens(self, fault):
        spec = ScenarioSpec.from_name(f"pittsburgh/winter/office/{fault}", days=DAYS)
        runner = ExperimentRunner(spec, episodes=1, base_seed=0, backend="serial")
        for agent in ("rule_based", "hysteresis", "pid", "ema"):
            result = runner.run(agent)
            reward, energy, violation = GOLDEN_ROBUSTNESS[(agent, fault)]
            assert result.mean_total_reward == pytest.approx(reward, abs=1e-9)
            assert result.mean_energy_kwh == pytest.approx(energy, abs=1e-9)
            assert result.mean_comfort_violation_rate == pytest.approx(
                violation, abs=1e-9
            )
