"""The four benchmark workloads.

Each workload is a closed loop (one client, one op in flight) that drives the
program only through its public API.  A workload has four phases:

* ``prepare`` builds the benchmark's own inputs and reference answers from the
  workload seed.  It is not timed and is not the program's set-up.
* ``setup`` is the program's own set-up before the first timed op; the
  harness times it (``setup_reps`` repetitions, median reported as
  ``setup_s``).
  It may return its own measured seconds instead, when the set-up runs in a
  child process.
* ``op`` is one timed op.
* ``check`` compares an op's output against the reference, outside the timed
  phase; a mismatch counts the op as failed.

Constructor arguments default to the benchmark's sizes; the self-tests pass
tiny ones.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Sampling ranges of the Table-1 policy input (zone temperature, outdoor
#: temperature, humidity, wind, solar radiation, occupants).
OBSERVATION_RANGES = np.array(
    [(10.0, 35.0), (-20.0, 40.0), (0.0, 100.0), (0.0, 15.0), (0.0, 1000.0), (0.0, 60.0)]
)


#: Leaf counts of the repository's recorded extractions: ``PipelineConfig.tiny()``
#: grows 69 leaves (depth 15, ``BENCH_serve.json``) and the paper defaults
#: ``PipelineConfig()`` grow 361 on pittsburgh/winter (depth 22, ROADMAP.md)
#: and 334 on tucson/summer (depth 23, ``results/extracted-trees.jsonl``).
TINY_PRESET_LEAVES = 69
PAPER_DEFAULT_LEAVES = 361


def _rng(seed: int, stream: int) -> np.random.Generator:
    """One independent generator per purpose, all derived from the workload seed."""
    return np.random.default_rng(np.random.SeedSequence([seed, stream]))


def synthetic_observations(rng: np.random.Generator, rows: int) -> np.ndarray:
    return rng.uniform(OBSERVATION_RANGES[:, 0], OBSERVATION_RANGES[:, 1], size=(rows, 6))


def synthetic_policy(rng: np.random.Generator, action_pairs, leaves: int):
    """A random tree policy over the Table-1 features, grown like CART.

    Leaves are split one at a time, each split drawn inside the leaf's input
    box, so every leaf is reachable.  The leaf to split is drawn uniformly,
    with no depth limit, as ``PipelineConfig()`` sets none: that makes the
    tree unbalanced like an extracted one, with a mean leaf depth near
    2 ln(leaves).  Leaf labels index ``action_pairs``.
    """
    from repro.core.tree_policy import TreePolicy
    from repro.data import OBSERVATION_FEATURES
    from repro.dtree.cart import DecisionTreeClassifier
    from repro.dtree.node import TreeNode

    def leaf(node_id, depth):
        return TreeNode(
            node_id=node_id, prediction=int(rng.integers(len(action_pairs))), depth=depth
        )

    root = leaf(0, 0)
    open_leaves = [(root, OBSERVATION_RANGES[:, 0].copy(), OBSERVATION_RANGES[:, 1].copy())]
    next_id = 1
    while len(open_leaves) < leaves:
        node, low, high = open_leaves.pop(int(rng.integers(len(open_leaves))))
        feature = int(rng.integers(len(low)))
        threshold = float(rng.uniform(low[feature], high[feature]))
        node.feature_index, node.threshold, node.prediction = feature, threshold, 0
        node.left, node.right = leaf(next_id, node.depth + 1), leaf(next_id + 1, node.depth + 1)
        next_id += 2
        left_high, right_low = high.copy(), low.copy()
        left_high[feature] = right_low[feature] = threshold
        open_leaves += [(node.left, low, left_high), (node.right, right_low, high)]
    tree = DecisionTreeClassifier()
    tree.n_features = len(OBSERVATION_FEATURES)
    tree.root = root
    tree.classes_ = np.arange(len(action_pairs))
    return TreePolicy(tree, action_pairs=action_pairs, feature_names=list(OBSERVATION_FEATURES))


class Workload:
    """Base class: no program counters, nothing to release."""

    name = ""
    #: Set-up repetitions per run, spread evenly through the timed phase.
    setup_reps = 15

    def __init__(self, seed: int, work_dir: Path):
        self.seed = int(seed)
        self.work_dir = Path(work_dir)

    def counters(self) -> Dict[str, float]:
        """Program-side counters read around traced ops (deltas are reported)."""
        return {}

    def close(self) -> None:
        pass


# --------------------------------------------------------------------- extract
#: Times the import of the pipeline and the building of the configs in a
#: fresh interpreter: argv is the ``src`` directory and the config list.
_IMPORT_PROBE = """\
import json, sys, time
sys.path.insert(0, sys.argv[1])
specs = json.loads(sys.argv[2])
start = time.perf_counter()
from repro.core.pipeline import PipelineConfig, VerifiedPolicyPipeline
configs = [PipelineConfig(**spec) for spec in specs]
print(time.perf_counter() - start)
"""


class Extract(Workload):
    """One op is one ``VerifiedPolicyPipeline(config).run()`` with no store."""

    name = "extract"
    #: Scenario cells, alternated op by op in this fixed order.
    cells = (("pittsburgh", "winter"), ("tucson", "summer"))

    def __init__(self, seed, work_dir, fields: Optional[Dict[str, Any]] = None, configs: int = 64):
        super().__init__(seed, work_dir)
        #: The paper defaults of ``PipelineConfig()`` except the decision
        #: dataset size, cut from 500 to 8 so a run holds about ten ops.
        self.fields = dict(fields or {"num_decision_data": 8})
        self.count = configs

    def prepare(self) -> None:
        from repro.core import pipeline
        from repro.core.verification import verify_criteria_2_3

        self.pipeline = pipeline
        self.verify = verify_criteria_2_3
        seeds = _rng(self.seed, 0).integers(0, 2**31 - 1, size=self.count)
        self.specs = [
            dict(self.fields, city=city, season=season, seed=int(seed))
            for (city, season), seed in zip(
                (self.cells[i % len(self.cells)] for i in range(self.count)), seeds
            )
        ]
        self.configs = [pipeline.PipelineConfig(**spec) for spec in self.specs]
        self.criteria = [config.criteria() for config in self.configs]

    def setup(self) -> float:
        src = str(Path(self.pipeline.__file__).resolve().parents[2])
        done = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, src, json.dumps(self.specs)],
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        return float(done.stdout.split()[-1])

    def op(self, index: int):
        return self.pipeline.VerifiedPolicyPipeline(self.configs[index % self.count]).run()

    def work(self, result) -> float:
        return float(len(result.decision_dataset))

    def check(self, index: int, result) -> bool:
        report = self.verify(result.policy, self.criteria[index % self.count], correct=False)
        probability = result.verification.safe_probability
        return (
            report.violations_criterion_2 == 0
            and report.violations_criterion_3 == 0
            and 0.0 <= probability <= 1.0
        )


# ----------------------------------------------------------------- serve-mixed
class ServeMixed(Workload):
    """One op builds one ``PolicyRequestBatch`` and calls ``serve_columnar``."""

    name = "serve-mixed"
    #: Fewer than the others: one set-up packs 256 trees and takes seconds.
    setup_reps = 7

    def __init__(
        self,
        seed,
        work_dir,
        policies: int = 256,
        per_batch: int = 64,
        rows: int = 8192,
        pool: int = 8,
        leaves: Tuple[int, int] = (TINY_PRESET_LEAVES, PAPER_DEFAULT_LEAVES),
    ):
        super().__init__(seed, work_dir)
        self.num_policies = policies
        self.per_batch = per_batch
        self.rows = rows
        self.pool_size = pool
        self.leaves = leaves
        self.server = None

    def prepare(self) -> None:
        from repro import data, serving, store

        self.data, self.serving = data, serving
        self.store = store.PolicyStore(self.work_dir / "store")
        tree_rng = _rng(self.seed, 1)
        pairs = [(15 + i, 22 + i) for i in range(8)]
        names = []
        for index in range(self.num_policies):
            policy = synthetic_policy(tree_rng, pairs, int(tree_rng.integers(*self.leaves, endpoint=True)))
            key = store.PolicyKey(
                city="bench", season="summer", building="office", seed=index,
                config_hash=f"{index:012x}",
            )
            names.append(self.store.put_policy(key, policy).key.name)
        names = np.array(names)
        # The reference reads every policy back from its JSON artifact and
        # walks the tree row by row: no arena, no compiled kernel.
        reference_policies = {}
        batch_rng = _rng(self.seed, 2)
        self.pool: List[Tuple[np.ndarray, np.ndarray]] = []
        self.reference: List[Tuple[np.ndarray, np.ndarray]] = []
        for _ in range(self.pool_size):
            chosen = batch_rng.choice(self.num_policies, size=self.per_batch, replace=False)
            ids = names[chosen[batch_rng.integers(0, self.per_batch, size=self.rows)]]
            observations = synthetic_observations(batch_rng, self.rows)
            actions = np.empty(self.rows, dtype=np.int64)
            setpoints = np.empty((self.rows, 2), dtype=np.int64)
            for policy_id in np.unique(ids):
                if policy_id not in reference_policies:
                    reference_policies[policy_id] = self.store.find(str(policy_id)).policy
                policy = reference_policies[policy_id]
                rows = ids == policy_id
                actions[rows] = policy.predict_action_indices(observations[rows])
                setpoints[rows] = np.asarray(policy.action_pairs)[actions[rows]]
            self.pool.append((ids, observations))
            self.reference.append((actions, setpoints))

    def setup(self) -> None:
        self.close()
        self.server = None
        self.store.pack()
        self.server = self.serving.PolicyServer(store=self.store)
        ids, observations = self.pool[0]
        self.server.serve_columnar(self.data.PolicyRequestBatch(policy_ids=ids, observations=observations))

    def op(self, index: int):
        ids, observations = self.pool[index % self.pool_size]
        return self.server.serve_columnar(
            self.data.PolicyRequestBatch(policy_ids=ids, observations=observations)
        )

    def work(self, response) -> float:
        return float(len(response))

    def check(self, index: int, response) -> bool:
        actions, setpoints = self.reference[index % self.pool_size]
        return (
            np.array_equal(response.action_indices, actions)
            and np.array_equal(response.heating_setpoints, setpoints[:, 0])
            and np.array_equal(response.cooling_setpoints, setpoints[:, 1])
        )

    def counters(self) -> Dict[str, float]:
        stats = self.server.stats
        return {"serving.compile_count": stats.compile_count, "serving.arena_hits": stats.arena_hits}

    def close(self) -> None:
        if self.server is not None:
            self.server.close()


# ----------------------------------------------------------------------- fleet
class _RecordingServer:
    """Forwards ``serve_columnar`` and keeps each batch and response for the check."""

    def __init__(self, server):
        self.server = server
        self.calls: List[Tuple[Any, Any]] = []

    def serve_columnar(self, batch):
        response = self.server.serve_columnar(batch)
        self.calls.append((batch, response))
        return response


class Fleet(Workload):
    """One op is one ``FleetLoop.tick`` over two 1024-building groups."""

    name = "fleet"
    cells = ("pittsburgh/winter", "tucson/summer")
    candidate_id = "candidate"

    def __init__(self, seed, work_dir, buildings: int = 1024, leaves: int = PAPER_DEFAULT_LEAVES, sample: int = 16):
        super().__init__(seed, work_dir)
        self.buildings = buildings
        self.leaves = leaves
        self.sample = sample
        self.server = None

    def prepare(self) -> None:
        from repro import fleet, serving, store
        from repro.core.tree_policy import TreePolicy
        from repro.experiments.scenarios import ScenarioSpec

        self.fleet, self.serving = fleet, serving
        self.store = store.PolicyStore(self.work_dir / "store")
        tree_rng = _rng(self.seed, 1)
        self.group_seeds = [int(s) for s in _rng(self.seed, 2).integers(0, 2**20, size=len(self.cells))]
        # Every group's incumbent is a tree over its environment's own action table.
        self.incumbents = []
        self.reference = {}
        for index, cell in enumerate(self.cells):
            pairs = ScenarioSpec.from_name(cell, days=1).build_environment(self.group_seeds[index]).action_space.pairs
            policy = synthetic_policy(tree_rng, pairs, self.leaves)
            key = store.PolicyKey(
                city="fleet", season=cell.split("/")[1], building="office", seed=index,
                config_hash=f"{index:012x}",
            )
            policy_id = self.store.put_policy(key, policy).key.name
            self.incumbents.append(policy_id)
            self.reference[policy_id] = policy
        self.store.pack()
        # The canary serves a bit-identical clone of the first group's incumbent.
        self.candidate = TreePolicy.from_dict(self.reference[self.incumbents[0]].to_dict())
        self.reference[self.candidate_id] = self.candidate
        self.check_rng = _rng(self.seed, 3)

    def setup(self) -> None:
        fleet = self.fleet
        self.close()
        self.server = self.loop = self.recorder = None
        groups = [
            fleet.FleetGroup.from_scenario(
                cell, policy_id=policy_id, num_buildings=self.buildings, base_seed=seed, days=1
            )
            for cell, policy_id, seed in zip(self.cells, self.incumbents, self.group_seeds)
        ]
        self.server = self.serving.PolicyServer(store=self.store)
        self.server.register(self.candidate_id, self.candidate)
        config = groups[0].env.environments[0].config
        incumbent = self.incumbents[0]
        # A canary window longer than any run: every tick does the same work.
        self.rollout = fleet.RolloutManager(
            incumbent, self.candidate_id, canary_fraction=0.25, min_canary_ticks=2**31 - 1
        )
        shadow = fleet.ShadowEvaluator(
            config.reward.comfort.lower,
            config.reward.comfort.upper,
            *config.actions.off_setpoints(),
        )
        drift = fleet.DriftDetector(
            fleet.TreePolicyTeacher(self.reference[incumbent]),
            baseline_policy_id=incumbent,
            seed=self.seed,
        )
        self.recorder = _RecordingServer(self.server)
        self.loop = fleet.FleetLoop(self.recorder, groups, rollout=self.rollout, shadow=shadow, drift=drift)
        self.rollout.begin_canary(0)
        self.loop.tick()
        self.recorder.calls.clear()

    def op(self, index: int):
        self.loop.tick()
        return self.recorder.calls

    def work(self, calls) -> float:
        return float(self.loop.total_buildings)

    def check(self, index: int, calls) -> bool:
        telemetry = self.loop.telemetry
        ok = (
            telemetry.lost_ticks == 0
            and telemetry.fallback_ticks == 0
            and self.rollout.state == self.fleet.CANARY
            and len(calls) == 2  # the fleet's batch and the candidate's shadow batch
        )
        for batch, response in calls:
            for row in self.check_rng.choice(len(batch), size=min(self.sample, len(batch)), replace=False):
                policy = self.reference[str(batch.policy_ids[row])]
                served = (int(response.heating_setpoints[row]), int(response.cooling_setpoints[row]))
                ok = ok and policy.setpoints_for(batch.observations[row]) == served
        calls.clear()
        return bool(ok)

    def counters(self) -> Dict[str, float]:
        stats, telemetry = self.server.stats, self.loop.telemetry
        return {
            "serving.compile_count": stats.compile_count,
            "serving.arena_hits": stats.arena_hits,
            "fleet.lost_ticks": telemetry.lost_ticks,
            "fleet.fallback_ticks": telemetry.fallback_ticks,
        }

    def close(self) -> None:
        if self.server is not None:
            self.server.close()


# -------------------------------------------------------------- rollout-serial
class RolloutSerial(Workload):
    """One op is one ``run_episode`` of a scalar ``HVACEnvironment`` episode."""

    name = "rollout-serial"
    scenario_name = "pittsburgh/winter"
    controllers: Sequence[str] = ("rule_based", "hysteresis", "pid", "ema", "dt")

    def __init__(self, seed, work_dir, days: int = 7, episodes: int = 4, leaves: int = PAPER_DEFAULT_LEAVES):
        super().__init__(seed, work_dir)
        self.days = days
        self.episodes = episodes
        self.leaves = leaves

    def prepare(self) -> None:
        from repro import agents
        from repro.experiments import runner
        from repro.experiments.scenarios import ScenarioSpec

        self.agents, self.runner = agents, runner
        self.scenario = ScenarioSpec.from_name(self.scenario_name, days=self.days)
        pairs = self.scenario.build_environment(0).action_space.pairs
        self.config = {name: {} for name in self.controllers}
        self.config["dt"] = {"policy": synthetic_policy(_rng(self.seed, 1), pairs, self.leaves)}
        base_seed = int(_rng(self.seed, 2).integers(0, 2**31 - 1))
        # The reference is the batched backend: every (controller, seed)
        # episode must match the serial op bit for bit.
        self.reference = {}
        for name in self.controllers:
            experiment = runner.ExperimentRunner(
                self.scenario, episodes=self.episodes, base_seed=base_seed, backend="batched"
            ).run(name, agent_config=self.config[name] or None)
            for episode in experiment.episodes:
                self.reference[name, episode.seed] = (episode.total_reward, episode.total_energy_kwh)
        self.seeds = runner.ExperimentRunner(
            self.scenario, episodes=self.episodes, base_seed=base_seed
        ).episode_seeds()

    def setup(self) -> None:
        # Controllers cycle fastest, so every run mixes all five.
        self.cases = []
        for seed in self.seeds:
            for name in self.controllers:
                environment = self.scenario.build_environment(seed)
                agent = self.agents.make_agent(name, environment=environment, seed=seed, **self.config[name])
                self.cases.append((name, seed, agent, environment))

    def op(self, index: int):
        _name, _seed, agent, environment = self.cases[index % len(self.cases)]
        return self.runner.run_episode(agent, environment)

    def work(self, episode) -> float:
        return float(episode.steps)

    def check(self, index: int, episode) -> bool:
        name, seed, _agent, _environment = self.cases[index % len(self.cases)]
        return (episode.total_reward, episode.total_energy_kwh) == self.reference[name, seed]


WORKLOADS = {cls.name: cls for cls in (Extract, ServeMixed, Fleet, RolloutSerial)}
