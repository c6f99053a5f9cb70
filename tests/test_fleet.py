"""Closed-loop fleet operations: loop, telemetry, shadow, drift, rollout.

The acceptance scenario lives in ``TestFleetEndToEnd``: a ≥1k-building fleet
runs through the sharded server with a candidate canaried and shadow-evaluated
— promoted when healthy (bit-identical telemetry across ``num_shards=1``,
sharded, and sharded-with-a-mid-canary-worker-kill topologies, zero lost
ticks) and auto-rolled-back when deliberately corrupted (drift alarm).  The
unit classes pin each subsystem's contract in isolation.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.agents import HysteresisAgent
from repro.agents.registry import make_agent
from repro.core.tree_policy import TreePolicy
from repro.data import ActionBatch
from repro.dtree.cart import DecisionTreeClassifier
from repro.experiments.cli import main
from repro.experiments.scenarios import ScenarioSpec
from repro.fleet import (
    CANARY,
    IDLE,
    PROMOTED,
    ROLLED_BACK,
    DriftDetector,
    FleetGroup,
    FleetLoop,
    FleetTelemetry,
    MPCTeacher,
    RolloutManager,
    ShadowEvaluator,
    TreePolicyTeacher,
    canary_mask,
)
from repro.serving import (
    Fault,
    ShardedPolicyServer,
    ShardedServingError,
    shard_for_policy,
)

N_FEATURES = 6


def scenario_env(name="pittsburgh/winter", seed=0, days=1):
    return ScenarioSpec.from_name(name, days=days).build_environment(seed)


def tree_policy_for(env, seed: int) -> TreePolicy:
    """A random tree over the environment's own action table."""
    pairs = env.action_space.pairs
    rng = np.random.default_rng(seed)
    features = rng.uniform(
        [10.0, -20.0, 0.0, 0.0, 0.0, 0.0],
        [35.0, 40.0, 100.0, 15.0, 1000.0, 60.0],
        size=(200, N_FEATURES),
    )
    labels = rng.integers(0, len(pairs), size=200)
    tree = DecisionTreeClassifier(max_depth=4)
    tree.fit(features, labels)
    return TreePolicy(tree, action_pairs=pairs)


def corrupted_clone(policy: TreePolicy) -> TreePolicy:
    """Every leaf forced to the most aggressive pair — maximal drift."""
    clone = TreePolicy.from_dict(policy.to_dict())
    extreme = max(clone.action_pairs, key=lambda p: (p[0], -p[1]))
    for leaf in clone.leaves():
        clone.set_leaf_action(leaf, *extreme)
    return clone


def fake_info(count, energy=1.0, proxy=2.0, violation=0.5, violated=1.0, occupied=1.0):
    return {
        "hvac_electric_energy_kwh": np.full(count, energy),
        "energy_proxy": np.full(count, proxy),
        "comfort_violation": np.full(count, violation),
        "comfort_violated": np.full(count, violated),
        "occupied": np.full(count, occupied),
    }


# -------------------------------------------------------------- telemetry
class TestFleetTelemetry:
    def test_accumulates_per_building_columns(self):
        ids = np.array(["a/b0", "a/b1", "b/b0"])
        telemetry = FleetTelemetry(ids, step_hours=0.25, window=4)
        telemetry.record_group(0, np.array([1.0, 2.0]), fake_info(2, violation=2.0))
        telemetry.record_group(2, np.array([3.0]), fake_info(1, energy=5.0))
        telemetry.advance_tick()
        assert telemetry.ticks == 1
        assert np.array_equal(telemetry.reward_sum, [1.0, 2.0, 3.0])
        assert np.array_equal(telemetry.energy_kwh, [1.0, 1.0, 5.0])
        # degree-hours scale by the step duration
        assert np.allclose(
            telemetry.comfort_violation_degree_hours, [0.5, 0.5, 0.125]
        )
        snapshot = telemetry.snapshot()
        assert snapshot["buildings"] == 3
        assert snapshot["lost_ticks"] == 0

    def test_windowed_means_slide(self):
        telemetry = FleetTelemetry(np.array(["x"]), step_hours=1.0, window=2)
        for reward in (1.0, 3.0, 5.0):
            telemetry.record_group(0, np.array([reward]), fake_info(1))
            telemetry.advance_tick()
        # window=2 keeps only the last two ticks: (3 + 5) / 2
        assert telemetry.windowed_mean_reward()[0] == pytest.approx(4.0)

    def test_fallback_and_lost_counters(self):
        telemetry = FleetTelemetry(np.array(["x"]), step_hours=1.0)
        telemetry.advance_tick(fallback=True)
        telemetry.advance_tick(lost=True)
        assert telemetry.fallback_ticks == 1
        assert telemetry.lost_ticks == 1

    def test_equals_is_bit_exact(self):
        ids = np.array(["a", "b"])
        one = FleetTelemetry(ids, step_hours=0.25, window=4)
        two = FleetTelemetry(ids, step_hours=0.25, window=4)
        for telemetry in (one, two):
            telemetry.record_group(0, np.array([1.0, 2.0]), fake_info(2))
            telemetry.advance_tick()
        assert one.equals(two)
        two.record_group(0, np.array([1.0, 2.0]), fake_info(2))
        two.advance_tick()
        assert not one.equals(two)

    def test_validation(self):
        with pytest.raises(ValueError):
            FleetTelemetry(np.array([]), step_hours=1.0)
        with pytest.raises(ValueError):
            FleetTelemetry(np.array(["x"]), step_hours=1.0, window=0)


# ----------------------------------------------------------------- shadow
class TestShadowEvaluator:
    def make(self, **kwargs):
        return ShadowEvaluator(20.0, 24.0, 15.0, 30.0, **kwargs)

    def test_identical_actions_are_healthy(self):
        shadow = self.make()
        pairs = np.array([[21, 25], [22, 26]])
        shadow.observe(pairs, pairs)
        assert shadow.disagreement == 0.0
        assert shadow.energy_delta == 0.0
        assert shadow.healthy()

    def test_divergent_candidate_fails_the_gate(self):
        shadow = self.make()
        incumbent = np.array([[15, 30], [15, 30]])
        candidate = np.array([[25, 21], [25, 21]])  # conditions much harder
        shadow.observe(incumbent, candidate)
        assert shadow.disagreement == 1.0
        assert shadow.energy_delta > 0
        assert not shadow.healthy()

    def test_comfort_risk_delta_sign(self):
        shadow = self.make(max_comfort_delta=0.1)
        safe = np.array([[21, 23]])  # inside the comfort band
        risky = np.array([[18, 27]])  # leaves the zone exposed both ways
        shadow.observe(safe, risky)
        assert shadow.comfort_delta > 0
        assert not shadow.healthy()

    def test_empty_ticks_advance_the_window(self):
        shadow = self.make(window=2)
        bad = (np.array([[15, 30]]), np.array([[25, 21]]))
        shadow.observe(*bad)
        shadow.observe(np.empty((0, 2)), np.empty((0, 2)))
        assert shadow.observed == 2
        # the bad tick still dominates the row-weighted window
        assert shadow.disagreement == 1.0

    def test_shape_mismatch_raises(self):
        shadow = self.make()
        with pytest.raises(ValueError):
            shadow.observe(np.zeros((2, 2)), np.zeros((3, 2)))


# ------------------------------------------------------------------ drift
class TestDriftDetector:
    def setup_method(self):
        self.env = scenario_env(seed=0)
        self.incumbent = tree_policy_for(self.env, seed=1)
        self.corrupted = corrupted_clone(self.incumbent)

    def observations(self, rows, seed=0):
        rng = np.random.default_rng(seed)
        return rng.uniform(
            [10.0, -20.0, 0.0, 0.0, 0.0, 0.0],
            [35.0, 40.0, 100.0, 15.0, 1000.0, 60.0],
            size=(rows, N_FEATURES),
        )

    def test_tree_teacher_labels_match_the_policy(self):
        teacher = TreePolicyTeacher(self.incumbent)
        inputs = self.observations(32)
        pairs = np.asarray(self.incumbent.action_pairs)
        expected = pairs[self.incumbent.compiled().predict_batch(inputs)]
        assert np.array_equal(teacher.label_pairs(inputs), expected)

    def test_baseline_relative_alarm_fires_only_on_the_drifted_version(self):
        teacher = TreePolicyTeacher(self.incumbent)
        detector = DriftDetector(
            teacher,
            sample_size=16,
            window=8,
            threshold=0.5,
            min_ticks=3,
            baseline_policy_id="inc",
            seed=0,
        )
        inputs = self.observations(16)
        incumbent_pairs = teacher.label_pairs(inputs)
        corrupted_pairs = TreePolicyTeacher(self.corrupted).label_pairs(inputs)
        ids = np.array(["inc"] * 8 + ["cand"] * 8)
        served = np.concatenate([incumbent_pairs[:8], corrupted_pairs[8:]])
        for tick in range(4):
            detector.observe(tick, ids, served, inputs)
        assert detector.disagreement("inc") == 0.0
        assert detector.disagreement("cand") == 1.0
        assert detector.excess("cand") == 1.0
        assert "cand" in detector.alarms()
        assert "inc" not in detector.alarms()  # the baseline never alarms
        # latched on the first eligible tick (min_ticks=3 -> tick index 2)
        assert detector.first_alarm_tick("cand") == 2

    def test_alarm_needs_min_ticks(self):
        teacher = TreePolicyTeacher(self.incumbent)
        detector = DriftDetector(
            teacher, sample_size=8, min_ticks=5, baseline_policy_id="inc", seed=0
        )
        inputs = self.observations(8)
        wrong = TreePolicyTeacher(self.corrupted).label_pairs(inputs)
        detector.observe(0, np.full(8, "cand"), wrong, inputs)
        assert detector.alarms() == {}

    def test_sample_rows_is_seed_deterministic(self):
        one = DriftDetector(TreePolicyTeacher(self.incumbent), sample_size=10, seed=7)
        two = DriftDetector(TreePolicyTeacher(self.incumbent), sample_size=10, seed=7)
        for _ in range(3):
            assert np.array_equal(one.sample_rows(100), two.sample_rows(100))
        assert len(one.sample_rows(4)) == 4  # clamped to the fleet size

    def test_mpc_teacher_is_deterministic_and_in_table(self):
        from repro.agents.random_shooting import RandomShootingOptimizer
        from repro.agents.rule_based import RuleBasedAgent
        from repro.env.dataset import collect_historical_data
        from repro.nn.dynamics import ThermalDynamicsModel

        data = collect_historical_data(
            self.env, RuleBasedAgent.from_config(self.env), steps=48, seed=1
        )
        model = ThermalDynamicsModel(hidden_sizes=(8,), seed=2)
        model.fit(data, epochs=2, seed=3)

        def make_teacher():
            optimizer = RandomShootingOptimizer(
                dynamics_model=model,
                action_space=self.env.action_space,
                reward_config=self.env.config.reward,
                action_config=self.env.config.actions,
                num_samples=16,
                horizon=3,
                seed=4,
            )
            return MPCTeacher(
                optimizer,
                self.env.action_space.pairs,
                monte_carlo_runs=2,
                planning_horizon=3,
                seed=5,
            )

        inputs = self.observations(6)
        labels = make_teacher().label_pairs(inputs)
        assert np.array_equal(labels, make_teacher().label_pairs(inputs))
        table = {tuple(p) for p in self.env.action_space.pairs}
        assert all(tuple(pair) in table for pair in labels)

    def test_validation(self):
        teacher = TreePolicyTeacher(self.incumbent)
        with pytest.raises(ValueError):
            DriftDetector(teacher, sample_size=0)
        with pytest.raises(ValueError):
            DriftDetector(teacher, window=0)
        detector = DriftDetector(teacher)
        with pytest.raises(ValueError):
            detector.sample_rows(0)
        with pytest.raises(ValueError):
            detector.observe(0, np.array(["a"]), np.zeros((1, 2)), self.observations(2))


# ---------------------------------------------------------------- rollout
class TestRolloutManager:
    def test_state_machine_promotes_after_healthy_window(self):
        rollout = RolloutManager("inc", "cand", canary_fraction=0.5, min_canary_ticks=3)
        assert rollout.state == IDLE
        rollout.begin_canary(0)
        assert rollout.state == CANARY and rollout.active
        assert rollout.on_tick(0, shadow_healthy=True, drift_alarmed=False) == CANARY
        assert rollout.on_tick(1, shadow_healthy=True, drift_alarmed=False) == CANARY
        assert rollout.on_tick(2, shadow_healthy=True, drift_alarmed=False) == PROMOTED
        assert not rollout.active
        assert [e.state for e in rollout.events] == [CANARY, PROMOTED]

    def test_drift_alarm_rolls_back_immediately(self):
        rollout = RolloutManager("inc", "cand", min_canary_ticks=10)
        rollout.begin_canary(0)
        assert rollout.on_tick(1, shadow_healthy=True, drift_alarmed=True) == ROLLED_BACK

    def test_red_shadow_gate_rolls_back_at_window_close(self):
        rollout = RolloutManager("inc", "cand", min_canary_ticks=2)
        rollout.begin_canary(0)
        assert rollout.on_tick(0, shadow_healthy=False, drift_alarmed=False) == CANARY
        assert rollout.on_tick(1, shadow_healthy=False, drift_alarmed=False) == ROLLED_BACK

    def test_serving_ids_per_state(self):
        rollout = RolloutManager("inc", "cand", canary_fraction=0.5)
        ids = np.array(["inc", "inc", "other"])
        mask = np.array([True, False, True])
        assert np.array_equal(rollout.serving_ids(ids, mask), ids)  # idle
        rollout.begin_canary(0)
        assert list(rollout.serving_ids(ids, mask)) == ["cand", "inc", "other"]
        rollout._transition(1, PROMOTED, "test")
        assert list(rollout.serving_ids(ids, mask)) == ["cand", "cand", "other"]
        rollout._transition(2, ROLLED_BACK, "test")
        assert list(rollout.serving_ids(ids, mask)) == ["inc", "inc", "other"]

    def test_canary_mask_is_stable_and_near_fraction(self):
        ids = np.array([f"town/b{i:05d}" for i in range(4000)])
        mask = canary_mask(ids, 0.25)
        assert np.array_equal(mask, canary_mask(ids, 0.25))  # no RNG anywhere
        assert 0.2 < np.mean(mask) < 0.3
        # membership is per-id: a permutation permutes the mask with it
        order = np.random.default_rng(0).permutation(len(ids))
        assert np.array_equal(canary_mask(ids[order], 0.25), mask[order])
        assert not canary_mask(ids, 0.0).any()
        assert canary_mask(ids, 1.0).all()

    def test_validation(self):
        with pytest.raises(ValueError):
            RolloutManager("same", "same")
        with pytest.raises(ValueError):
            RolloutManager("inc", "cand", canary_fraction=0.0)
        with pytest.raises(ValueError):
            canary_mask(np.array(["a"]), 1.5)
        rollout = RolloutManager("inc", "cand")
        rollout.begin_canary(0)
        with pytest.raises(RuntimeError):
            rollout.begin_canary(1)


# ------------------------------------------------------------- hysteresis
class TestHysteresisAgent:
    def test_registered_with_aliases(self):
        agent = make_agent("hysteresis", season="winter")
        assert isinstance(agent, HysteresisAgent)
        assert isinstance(make_agent("thermostat", season="winter"), HysteresisAgent)

    def test_batched_selection_matches_serial(self):
        envs = [scenario_env(seed=s) for s in range(4)]
        serial_agents = HysteresisAgent.for_environments(envs)
        batch_agents = HysteresisAgent.for_environments(envs)
        from repro.env.vector_env import BatchedHVACEnvironment

        batched = BatchedHVACEnvironment(envs)
        observations, _ = batched.reset()
        serial_obs = [env.reset()[0] for env in envs]
        for step in range(96):
            expected = [
                agent.select_action(obs, env, step)
                for agent, obs, env in zip(serial_agents, serial_obs, envs)
            ]
            actions = HysteresisAgent.select_actions_batch(
                batch_agents, observations, envs, step
            )
            assert list(actions.indices) == expected
            serial_obs = [
                env.step(a).observation for env, a in zip(envs, expected)
            ]
            result = batched.step(ActionBatch(np.asarray(expected)))
            observations = result.observations

    def test_latch_behaviour(self):
        agent = HysteresisAgent(deadband=0.5)
        mid = agent.comfort.midpoint
        agent._advance_latch(mid - 1.0, occupied=True)
        assert agent._heat_on  # cold zone engages heating
        agent._advance_latch(mid, occupied=True)
        assert agent._heat_on  # latched until the top of the deadband
        agent._advance_latch(mid + 1.0, occupied=True)
        assert not agent._heat_on
        agent._advance_latch(mid - 2.0, occupied=False)
        assert not agent._heat_on  # unoccupied never conditions

    def test_validation(self):
        with pytest.raises(ValueError):
            HysteresisAgent(deadband=0.0)
        with pytest.raises(ValueError):
            HysteresisAgent(deadband=50.0)


# ------------------------------------------------------------- fleet loop
class _FailingServer:
    """A server whose retry budget is always exhausted."""

    def serve_columnar(self, batch):
        raise ShardedServingError("injected")


class _OffTableServer:
    """Serves (24, 22) to every row: heating above cooling, in no env table."""

    def serve_columnar(self, batch):
        rows = len(batch.policy_ids)
        pairs = np.tile(np.array([24, 22], dtype=np.int64), (rows, 1))
        return SimpleNamespace(setpoint_pairs=lambda: pairs)


class TestFleetLoopDegradedModes:
    def make_group(self):
        return FleetGroup.from_scenario(
            "pittsburgh/winter", policy_id="inc", num_buildings=8, days=1
        )

    def test_serving_failure_falls_back_to_hysteresis(self):
        loop = FleetLoop(_FailingServer(), [self.make_group()])
        loop.run(3)
        assert loop.telemetry.fallback_ticks == 3
        assert loop.telemetry.lost_ticks == 0
        # the physics never paused: energy/reward accumulated anyway
        assert loop.telemetry.ticks == 3

    def test_without_fallback_ticks_are_lost_but_counted(self):
        loop = FleetLoop(_FailingServer(), [self.make_group()], fallback=False)
        loop.run(2)
        assert loop.telemetry.lost_ticks == 2
        assert loop.telemetry.fallback_ticks == 0

    def test_served_pair_outside_the_env_table_is_rejected(self):
        group = self.make_group()
        loop = FleetLoop(_OffTableServer(), [group])
        with pytest.raises(ValueError, match="outside the action table"):
            loop.tick()
        assert group.env.step_index == 0  # no building stepped on a bad pair

    def test_group_validation(self):
        with pytest.raises(ValueError):
            FleetLoop(_FailingServer(), [])
        with pytest.raises(ValueError):
            FleetGroup.from_scenario("pittsburgh/winter", policy_id="x", num_buildings=0)


# ------------------------------------------------------------- end to end
FLEET_BUILDINGS = 1024
FLEET_TICKS = 8


class TestFleetEndToEnd:
    """The acceptance scenario: canary through the real serving stack."""

    def build_fleet(self, corrupt=False):
        groups = [
            FleetGroup.from_scenario(
                "pittsburgh/winter",
                policy_id="inc-a",
                num_buildings=FLEET_BUILDINGS // 2,
                base_seed=0,
                days=1,
                name="pit-winter",
            ),
            FleetGroup.from_scenario(
                "tucson/summer",
                policy_id="inc-b",
                num_buildings=FLEET_BUILDINGS // 2,
                base_seed=100,
                days=1,
                name="tuc-summer",
            ),
        ]
        env_a = groups[0].env.environments[0]
        env_b = groups[1].env.environments[0]
        inc_a = tree_policy_for(env_a, seed=11)
        inc_b = tree_policy_for(env_b, seed=22)
        candidate = (
            corrupted_clone(inc_a)
            if corrupt
            else TreePolicy.from_dict(inc_a.to_dict())
        )
        return groups, {"inc-a": inc_a, "inc-b": inc_b, "cand": candidate}, env_a

    def run_fleet(self, num_shards, corrupt=False, kill_tick=None):
        groups, policies, env_a = self.build_fleet(corrupt=corrupt)
        rollout = RolloutManager(
            "inc-a", "cand", canary_fraction=0.25, min_canary_ticks=6
        )
        reward = env_a.config.reward
        shadow = ShadowEvaluator(
            reward.comfort.lower,
            reward.comfort.upper,
            *env_a.config.actions.off_setpoints(),
            window=8,
        )
        drift = DriftDetector(
            TreePolicyTeacher(policies["inc-a"]),
            sample_size=64,
            window=8,
            threshold=0.25,
            min_ticks=3,
            baseline_policy_id="inc-a",
            seed=5,
        )
        server = ShardedPolicyServer(
            store=False, num_shards=num_shards, timeout=10.0, heartbeat_interval=None
        )
        try:
            for policy_id, policy in policies.items():
                server.register(policy_id, policy)
            loop = FleetLoop(server, groups, rollout=rollout, shadow=shadow, drift=drift)
            rollout.begin_canary(0)
            for tick in range(FLEET_TICKS):
                if kill_tick is not None and tick == kill_tick:
                    server.inject_fault(
                        Fault(kind="kill", shard=shard_for_policy("cand", num_shards))
                    )
                loop.tick()
        finally:
            server.close()
        return loop

    def test_healthy_candidate_promotes_bit_identically_across_topologies(self):
        local = self.run_fleet(num_shards=1)
        sharded = self.run_fleet(num_shards=2)
        killed = self.run_fleet(num_shards=2, kill_tick=3)
        for loop in (local, sharded, killed):
            assert loop.rollout.state == PROMOTED
            assert loop.telemetry.lost_ticks == 0
            assert loop.telemetry.fallback_ticks == 0
            assert loop.shadow.healthy()  # identical clone: zero disagreement
        # telemetry is bit-identical across serving topologies, kill included
        assert local.telemetry.equals(sharded.telemetry)
        assert local.telemetry.equals(killed.telemetry)

    def test_corrupted_candidate_rolls_back_on_drift_alarm(self):
        loop = self.run_fleet(num_shards=1, corrupt=True)
        assert loop.rollout.state == ROLLED_BACK
        assert loop.telemetry.lost_ticks == 0
        assert "cand" in loop.drift.alarms() or loop.drift.first_alarm_tick("cand") is not None
        # rollback reverts the canary slice: serving ids are incumbents again
        served = loop._serving_ids()
        assert "cand" not in set(served.tolist())
        report = loop.report()
        assert report["rollout"]["events"][-1]["state"] == ROLLED_BACK


# -------------------------------------------------------------------- CLI
class TestFleetCLI:
    def test_fleet_command_canary_rollback_smoke(self, tmp_path):
        output = tmp_path / "report.json"
        stats = tmp_path / "stats.json"
        code = main(
            [
                "fleet",
                "--buildings", "24",
                "--ticks", "8",
                "--canary", "0.25",
                "--min-canary-ticks", "4",
                "--corrupt-candidate",
                "--window", "6",
                "--store", str(tmp_path / "store"),
                "--decision-data", "24",
                "--stats-json", str(stats),
                "--output", str(output),
            ]
        )
        assert code == 0
        import json

        report = json.loads(output.read_text())
        assert report["rollout"]["state"] == ROLLED_BACK
        assert report["telemetry"]["lost_ticks"] == 0
        counters = json.loads(stats.read_text())
        assert "fleet" in counters

    def test_fleet_rejects_bad_arguments(self, tmp_path):
        assert main(["fleet", "--buildings", "0"]) == 2
        assert main(["fleet", "--canary", "2.0"]) == 2
        assert main(["fleet", "--inject-kill", "1", "--shards", "1"]) == 2
