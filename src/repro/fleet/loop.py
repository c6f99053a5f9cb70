"""The closed fleet loop: observations out of the sim, actions out of the server.

One :class:`FleetLoop` tick is a full SCADA-style telemetry round trip for
every building in the fleet:

1. gather the current :class:`~repro.data.ObservationBatch` of every
   :class:`FleetGroup` (a batched environment under one scenario and one
   incumbent policy) into a single columnar request;
2. route it through the serving stack (a
   :class:`~repro.serving.ShardedPolicyServer` fleet or an in-process
   :class:`~repro.serving.PolicyServer`) in one ``serve_columnar`` call;
3. map the served (heating, cooling) pairs onto each group's environment
   action table and step every group;
4. fold rewards/energy/comfort into the columnar
   :class:`~repro.fleet.telemetry.FleetTelemetry`;
5. drive the optional rollout machinery: shadow-serve the candidate
   (:class:`~repro.fleet.shadow.ShadowEvaluator`), audit sampled rows against
   the teacher (:class:`~repro.fleet.drift.DriftDetector`), and advance the
   :class:`~repro.fleet.rollout.RolloutManager` state machine.

The loop never stops on a serving failure: if the shard fleet exhausts its
retry budget mid-tick, the tick is served by a bank of per-building
:class:`~repro.agents.hysteresis.HysteresisAgent` thermostats (the
degraded-mode controller) and counted in ``telemetry.fallback_ticks``; with
the fallback bank disabled the tick is counted as *lost* and the buildings
hold their off setpoints — the physics never pause.  CI floors assert
``lost_ticks == 0`` through injected worker kills.

Everything on the tick path is columnar (reprolint REP007): one request, one
response, one scatter per group.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.agents.hysteresis import HysteresisAgent
from repro.data import ActionBatch, ObservationBatch, PolicyRequestBatch
from repro.env.vector_env import BatchedHVACEnvironment
from repro.fleet.drift import DriftDetector
from repro.fleet.rollout import RolloutManager
from repro.fleet.shadow import ShadowEvaluator
from repro.fleet.telemetry import FleetTelemetry
from repro.serving import ShardedServingError


class FleetGroup:
    """One scenario's slice of the fleet: a batched env + ids + incumbent."""

    def __init__(
        self,
        name: str,
        env: BatchedHVACEnvironment,
        building_ids: np.ndarray,
        policy_id: str,
    ):
        if len(building_ids) != env.batch_size:
            raise ValueError(
                f"{len(building_ids)} building ids for a batch of {env.batch_size}"
            )
        self.name = str(name)
        self.env = env
        self.building_ids = np.asarray(building_ids)
        self.policy_id = str(policy_id)
        #: The environments' shared action table; maps served pairs to indices.
        self.action_space = env.environments[0].action_space
        #: Current (pre-step) observations; maintained by the loop.
        self.observations: Optional[ObservationBatch] = None

    @classmethod
    def from_scenario(
        cls,
        scenario: Union[str, Any],
        policy_id: str,
        num_buildings: int,
        base_seed: int = 0,
        distinct: int = 16,
        days: Optional[int] = None,
        name: Optional[str] = None,
    ) -> "FleetGroup":
        """Build a group of ``num_buildings`` from one scenario.

        ``distinct`` controls how many *distinct* disturbance traces are
        simulated (seeds ``base_seed .. base_seed + distinct - 1``); the
        traces are tiled across the group, which makes thousand-building
        groups cheap to construct while every serving-side code path still
        sees the full row count.  ``scenario`` is a grid name
        (``city/season[/building]``) or a prepared ``ScenarioSpec``.
        """
        from repro.experiments.scenarios import ScenarioSpec

        if num_buildings <= 0:
            raise ValueError("num_buildings must be positive")
        if distinct <= 0:
            raise ValueError("distinct must be positive")
        if isinstance(scenario, str):
            kwargs = {"days": days} if days is not None else {}
            spec = ScenarioSpec.from_name(scenario, **kwargs)
        else:
            spec = scenario
        distinct = min(int(distinct), int(num_buildings))
        base_envs = [spec.build_environment(base_seed + i) for i in range(distinct)]
        tiled = [base_envs[i % distinct] for i in range(num_buildings)]
        group_name = name or spec.name
        ids = np.array([f"{group_name}/b{i:05d}" for i in range(num_buildings)])
        return cls(
            name=group_name,
            env=BatchedHVACEnvironment(tiled),
            building_ids=ids,
            policy_id=policy_id,
        )


class FleetLoop:
    """Tick-driven closed loop over one or more fleet groups."""

    def __init__(
        self,
        server,
        groups: Sequence[FleetGroup],
        telemetry_window: int = 96,
        rollout: Optional[RolloutManager] = None,
        shadow: Optional[ShadowEvaluator] = None,
        drift: Optional[DriftDetector] = None,
        fallback: bool = True,
        fallback_deadband: float = 0.5,
    ):
        if not groups:
            raise ValueError("A fleet needs at least one group")
        self.server = server
        self.groups: List[FleetGroup] = list(groups)
        durations = {g.env.step_duration_seconds for g in self.groups}
        if len(durations) != 1:
            raise ValueError("All groups must share the control-step duration")
        self.rollout = rollout
        self.shadow = shadow
        self.drift = drift

        self._slices: List[Tuple[int, int]] = []
        offset = 0
        for group in self.groups:
            self._slices.append((offset, offset + group.env.batch_size))
            offset += group.env.batch_size
        self.total_buildings = offset
        building_ids = np.concatenate([g.building_ids for g in self.groups])
        self._incumbent_ids = np.concatenate(
            [np.full(g.env.batch_size, g.policy_id) for g in self.groups]
        )
        if rollout is not None:
            self._canary_mask = rollout.canary_mask(building_ids)
            self._managed = self._incumbent_ids == rollout.incumbent_id
        else:
            self._canary_mask = np.zeros(self.total_buildings, dtype=bool)
            self._managed = np.zeros(self.total_buildings, dtype=bool)

        step_hours = self.groups[0].env.step_duration_seconds / 3600.0
        self.telemetry = FleetTelemetry(
            building_ids, step_hours=step_hours, window=telemetry_window
        )
        if fallback:
            self._fallback_banks = [
                HysteresisAgent.for_environments(
                    g.env.environments, deadband=fallback_deadband
                )
                for g in self.groups
            ]
        else:
            self._fallback_banks = None
        self.tick_index = 0
        self.tick_seconds: List[float] = []
        self.serve_seconds: List[float] = []
        self.reset()

    # ------------------------------------------------------------------ reset
    def reset(self) -> None:
        """Reset every group (and the fallback latches) to tick zero state."""
        for group in self.groups:
            observations, _ = group.env.reset()
            group.observations = observations
        if self._fallback_banks is not None:
            for bank in self._fallback_banks:
                for agent in bank:
                    agent.reset()
        self.tick_index = 0

    # ------------------------------------------------------------------- tick
    def _serving_ids(self) -> np.ndarray:
        if self.rollout is None:
            return self._incumbent_ids
        return self.rollout.serving_ids(self._incumbent_ids, self._canary_mask)

    def tick(self) -> None:
        """One synchronized observe → serve → act round trip for the fleet."""
        tick_start = time.perf_counter()
        observation_matrix = np.concatenate(
            [np.asarray(g.observations, dtype=float) for g in self.groups]
        )
        serving_ids = self._serving_ids()

        serve_start = time.perf_counter()
        served_pairs: Optional[np.ndarray] = None
        try:
            response = self.server.serve_columnar(
                PolicyRequestBatch(
                    policy_ids=serving_ids, observations=observation_matrix
                )
            )
            served_pairs = response.setpoint_pairs()
        except ShardedServingError:
            # Retry budget exhausted: this tick is served by the degraded-mode
            # thermostats (or held at off setpoints and counted as lost).
            pass
        self.serve_seconds.append(time.perf_counter() - serve_start)

        for index, group in enumerate(self.groups):
            lo, hi = self._slices[index]
            if served_pairs is not None:
                # Served pairs come from the policy's table; a pair outside the
                # environment's table raises ValueError.
                actions = ActionBatch(
                    group.action_space.indices(
                        served_pairs[lo:hi, 0], served_pairs[lo:hi, 1]
                    )
                )
            elif self._fallback_banks is not None:
                actions = HysteresisAgent.select_actions_batch(
                    self._fallback_banks[index],
                    group.observations,
                    group.env.environments,
                    group.env.step_index,
                )
            else:
                off_pair = group.env.environments[0].config.actions.off_setpoints()
                off_index = group.env.environments[0].action_space.to_index(*off_pair)
                actions = ActionBatch(
                    np.full(group.env.batch_size, off_index, dtype=np.int64)
                )
            result = group.env.step(actions)
            self.telemetry.record_group(lo, result.rewards, result.info)
            if result.truncated:
                # Continuous operation: the episode ends, the building does
                # not — re-enter the trace from the start.
                observations, _ = group.env.reset()
                group.observations = observations
                self.telemetry.episodes_completed += 1
                if self._fallback_banks is not None:
                    for agent in self._fallback_banks[index]:
                        agent.reset()
            else:
                group.observations = result.observations

        if served_pairs is not None:
            self._observe_shadow(observation_matrix, serving_ids, served_pairs)
            self._observe_drift(observation_matrix, serving_ids, served_pairs)
        self._advance_rollout()
        self.telemetry.advance_tick(
            fallback=served_pairs is None and self._fallback_banks is not None,
            lost=served_pairs is None and self._fallback_banks is None,
        )
        self.tick_index += 1
        self.tick_seconds.append(time.perf_counter() - tick_start)

    def run(self, ticks: int) -> FleetTelemetry:
        """Drive the loop ``ticks`` ticks and return the fleet telemetry."""
        if ticks <= 0:
            raise ValueError("ticks must be positive")
        for _ in range(ticks):
            self.tick()
        return self.telemetry

    # ------------------------------------------------------ rollout machinery
    def _observe_shadow(
        self,
        observation_matrix: np.ndarray,
        serving_ids: np.ndarray,
        served_pairs: np.ndarray,
    ) -> None:
        if self.shadow is None or self.rollout is None or not self.rollout.active:
            return
        rows = self._managed & ~self._canary_mask
        if not np.any(rows):
            self.shadow.observe(np.empty((0, 2)), np.empty((0, 2)))
            return
        count = int(np.sum(rows))
        try:
            candidate = self.server.serve_columnar(
                PolicyRequestBatch(
                    policy_ids=np.full(count, self.rollout.candidate_id),
                    observations=observation_matrix[rows],
                )
            )
        except ShardedServingError:
            # Shadow traffic is advisory; a failed shadow serve skips the
            # tick's comparison rather than degrading the real fleet.
            return
        self.shadow.observe(served_pairs[rows], candidate.setpoint_pairs())

    def _observe_drift(
        self,
        observation_matrix: np.ndarray,
        serving_ids: np.ndarray,
        served_pairs: np.ndarray,
    ) -> None:
        if self.drift is None:
            return
        sample = self.drift.sample_rows(self.total_buildings)
        self.drift.observe(
            self.tick_index,
            serving_ids[sample],
            served_pairs[sample],
            observation_matrix[sample],
        )

    def _advance_rollout(self) -> None:
        if self.rollout is None or not self.rollout.active:
            return
        drift_alarmed = (
            self.drift is not None
            and self.rollout.candidate_id in self.drift.alarms()
        )
        shadow_healthy = self.shadow.healthy() if self.shadow is not None else True
        self.rollout.on_tick(self.tick_index, shadow_healthy, drift_alarmed)

    # --------------------------------------------------------------- reporting
    def _latency_percentiles(self, seconds: Sequence[float]) -> Dict[str, float]:
        if not seconds:
            return {"p50": 0.0, "p99": 0.0, "mean": 0.0}
        values = np.asarray(seconds)
        return {
            "p50": float(np.percentile(values, 50)),
            "p99": float(np.percentile(values, 99)),
            "mean": float(np.mean(values)),
        }

    def report(self) -> Dict[str, Any]:
        """Operator summary: telemetry, latency, rollout/shadow/drift state."""
        wall = float(np.sum(self.tick_seconds)) if self.tick_seconds else 0.0
        ticks = len(self.tick_seconds)
        summary: Dict[str, Any] = {
            "groups": [
                {
                    "name": g.name,
                    "buildings": g.env.batch_size,
                    "policy_id": g.policy_id,
                }
                for g in self.groups
            ],
            "buildings": self.total_buildings,
            "ticks": ticks,
            "wall_seconds": wall,
            "ticks_per_second": ticks / wall if wall > 0 else 0.0,
            "building_ticks_per_second": (
                ticks * self.total_buildings / wall if wall > 0 else 0.0
            ),
            "tick_latency_seconds": self._latency_percentiles(self.tick_seconds),
            "serve_latency_seconds": self._latency_percentiles(self.serve_seconds),
            "telemetry": self.telemetry.snapshot(),
        }
        if self.rollout is not None:
            summary["rollout"] = self.rollout.report()
        if self.shadow is not None:
            summary["shadow"] = self.shadow.report()
        if self.drift is not None:
            summary["drift"] = self.drift.report()
        return summary
