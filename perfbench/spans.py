"""Outside-in span tracing of the program's public calls.

The tracer patches the class or module attribute of each call in
:data:`TARGETS` with a wrapper that records a span (name, start, end, parent
span, op id), so calls the program makes internally are caught too.  Spans
stay in memory and are written once, at exit, by the caller.  Nothing inside
``src/`` knows about the tracer: the wrappers are installed around traced ops
and removed again for untraced ones, so an untraced op runs unpatched code.

Self time is a span's duration minus the time its child spans cover.  Every
op runs under a root ``op`` span, so the self times of one op's spans add up
to the op's wall time exactly; the root's own self time is the part no layer
claims.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Name of the root span the harness opens around every op.
ROOT = "op"

Counter = Callable[[Dict[str, float], tuple, dict, Any], None]


def _length(value: Any) -> int:
    """Rows in a call's first argument (a scalar counts as one row)."""
    return len(value) if hasattr(value, "__len__") else 1


def _rows(prefix: str) -> Counter:
    """Count calls and the rows of the first argument after ``self``."""

    def count(counts, args, kwargs, result):
        counts[prefix + ".calls"] += 1
        counts[prefix + ".rows"] += _length(args[1])

    return count


def _calls(key: str) -> Counter:
    def count(counts, args, kwargs, result):
        counts[key] += 1

    return count


def _plan(counts, args, kwargs, result):
    counts["agents.plan.problems"] += _length(args[1])


def _distill(counts, args, kwargs, result):
    counts["core.distill.entries"] += len(result)


def _formal(counts, args, kwargs, result):
    counts["core.verify_formal.leaves"] += result.total_leaves
    counts["core.verify_formal.corrected"] += result.total_corrected


def _probabilistic(counts, args, kwargs, result):
    counts["core.verify_prob.samples"] += result.num_samples


def _tree_fit(counts, args, kwargs, result):
    counts["dtree.fit.nodes"] += result.node_count


def _batch_step(counts, args, kwargs, result):
    counts["env.batch_step.rows"] += args[0].batch_size


def _grouping(counts, args, kwargs, result):
    counts["data.grouping.calls"] += 1
    counts["data.grouping.policies"] += len(result[1])


def _serve(counts, args, kwargs, result):
    counts["serving.serve.rows"] += _length(args[1])


#: (module, class or None for a module function, attribute, span, counter).
TARGETS: Tuple[Tuple[str, Optional[str], str, str, Optional[Counter]], ...] = (
    ("repro.nn.dynamics", "ThermalDynamicsModel", "predict", "nn.predict", _rows("nn.predict")),
    ("repro.nn.dynamics", "ThermalDynamicsModel", "fit", "nn.fit", None),
    ("repro.agents.random_shooting", "RandomShootingOptimizer", "plan_batch", "agents.plan", _plan),
    ("repro.agents.rule_based", "RuleBasedAgent", "select_action", "agents.select", _calls("agents.select.calls")),
    ("repro.agents.hysteresis", "HysteresisAgent", "select_action", "agents.select", _calls("agents.select.calls")),
    ("repro.agents.pid", "PIDAgent", "select_action", "agents.select", _calls("agents.select.calls")),
    ("repro.agents.ema", "EMAAgent", "select_action", "agents.select", _calls("agents.select.calls")),
    ("repro.agents.dt_agent", "DecisionTreeAgent", "select_action", "agents.select", _calls("agents.select.calls")),
    ("repro.core.decision_dataset", "DecisionDatasetGenerator", "generate", "core.distill", _distill),
    ("repro.core.extraction", "PolicyExtractor", "fidelity", "core.fidelity", None),
    ("repro.core.verification", None, "verify_criteria_2_3", "core.verify_formal", _formal),
    ("repro.core.verification", None, "verify_criterion_1", "core.verify_prob", _probabilistic),
    ("repro.core.pipeline", "VerifiedPolicyPipeline", "run", "core.pipeline", None),
    ("repro.core.pipeline", "VerifiedPolicyPipeline", "collect_history", "env.history", None),
    ("repro.dtree.cart", "DecisionTreeClassifier", "fit", "dtree.fit", _tree_fit),
    ("repro.env.hvac_env", "HVACEnvironment", "step", "env.step", _calls("env.step.calls")),
    ("repro.env.hvac_env", "HVACEnvironment", "reset", "env.reset", None),
    ("repro.env.vector_env", "BatchedHVACEnvironment", "step", "env.batch_step", _batch_step),
    ("repro.env.vector_env", "BatchedHVACEnvironment", "reset", "env.reset", None),
    ("repro.buildings.thermal", "ThermalNetwork", "step", "buildings.thermal", _calls("buildings.thermal.calls")),
    ("repro.buildings.thermal", "ThermalNetwork", "step_batch", "buildings.thermal_batch", None),
    ("repro.buildings.hvac", "BatchedHVACPlant", "evaluate", "buildings.plant_batch", None),
    ("repro.data.schema", "PolicyRequestBatch", "__init__", "data.batch", None),
    ("repro.data.schema", "PolicyRequestBatch", "grouping", "data.grouping", _grouping),
    ("repro.serving.server", "PolicyServer", "serve_columnar", "serving.serve", _serve),
    ("repro.serving.server", "PolicyServer", "resolve", "serving.resolve", _calls("serving.resolve.calls")),
    ("repro.serving.compiled", "CompiledTreePolicy", "predict_batch", "serving.predict", _rows("serving.predict")),
    ("repro.serving.server", "PolicyServer", "__init__", "store.open", None),
    ("repro.store.arena", "PolicyArena", "get", "store.arena_get", _calls("store.arena_get.calls")),
    ("repro.store.store", "PolicyStore", "pack", "store.pack", None),
    ("repro.fleet.loop", "FleetLoop", "tick", "fleet.tick", None),
    ("repro.fleet.telemetry", "FleetTelemetry", "record_group", "fleet.telemetry", None),
    ("repro.fleet.telemetry", "FleetTelemetry", "advance_tick", "fleet.telemetry", None),
    ("repro.fleet.shadow", "ShadowEvaluator", "observe", "fleet.shadow", None),
    ("repro.fleet.drift", "DriftDetector", "observe", "fleet.drift", None),
    ("repro.fleet.rollout", "RolloutManager", "on_tick", "fleet.rollout", None),
    ("repro.experiments.runner", None, "run_episode", "experiments.episode", None),
)

#: Per-layer metrics: name -> (kind, source); their units are declared in
#: ``BENCHMARK.json``.  ``incl`` is the wall time of the outermost spans of
#: ``source`` per op, ``self`` their self time per op, ``count`` a counter per
#: op, ``ratio`` one counter over another, and ``setup`` the wall time of
#: ``source`` spans per set-up repetition.
LAYER_METRICS: Dict[str, Tuple[str, Any]] = {
    "nn.predict_s": ("incl", "nn.predict"),
    "nn.predict_calls": ("count", "nn.predict.calls"),
    "nn.predict_rows": ("count", "nn.predict.rows"),
    "nn.fit_s": ("incl", "nn.fit"),
    "agents.plan_s": ("incl", "agents.plan"),
    "agents.plan_self_s": ("self", "agents.plan"),
    "agents.plan_problems": ("count", "agents.plan.problems"),
    "agents.select_s": ("incl", "agents.select"),
    "agents.decisions": ("count", "agents.select.calls"),
    "core.distill_s": ("incl", "core.distill"),
    "core.distill_entries": ("count", "core.distill.entries"),
    "core.fidelity_s": ("incl", "core.fidelity"),
    "core.verify_formal_s": ("incl", "core.verify_formal"),
    "core.leaves": ("count", "core.verify_formal.leaves"),
    "core.corrected_leaf_frac": ("ratio", ("core.verify_formal.corrected", "core.verify_formal.leaves")),
    "core.verify_prob_s": ("incl", "core.verify_prob"),
    "core.verify_prob_samples": ("count", "core.verify_prob.samples"),
    "core.pipeline_self_s": ("self", "core.pipeline"),
    "dtree.fit_s": ("incl", "dtree.fit"),
    "dtree.nodes": ("count", "dtree.fit.nodes"),
    "env.history_s": ("incl", "env.history"),
    "env.step_s": ("incl", "env.step"),
    "env.steps": ("count", "env.step.calls"),
    "env.batch_step_s": ("incl", "env.batch_step"),
    "env.batch_rows": ("count", "env.batch_step.rows"),
    "env.reset_s": ("incl", "env.reset"),
    "buildings.thermal_s": ("incl", "buildings.thermal"),
    "buildings.thermal_calls": ("count", "buildings.thermal.calls"),
    "buildings.thermal_batch_s": ("incl", "buildings.thermal_batch"),
    "buildings.plant_batch_s": ("incl", "buildings.plant_batch"),
    "data.batch_s": ("incl", "data.batch"),
    "data.grouping_s": ("incl", "data.grouping"),
    "data.policies_per_batch": ("ratio", ("data.grouping.policies", "data.grouping.calls")),
    "serving.serve_s": ("incl", "serving.serve"),
    "serving.serve_rows": ("count", "serving.serve.rows"),
    "serving.resolve_s": ("incl", "serving.resolve"),
    "serving.resolve_calls": ("count", "serving.resolve.calls"),
    "serving.predict_s": ("incl", "serving.predict"),
    "serving.predict_rows": ("count", "serving.predict.rows"),
    "serving.serve_self_s": ("self", "serving.serve"),
    "serving.compile_count": ("count", "serving.compile_count"),
    "serving.arena_hit_frac": ("ratio", ("serving.arena_hits", "serving.resolve.calls")),
    "store.arena_get_s": ("incl", "store.arena_get"),
    "store.arena_gets": ("count", "store.arena_get.calls"),
    "store.pack_s": ("setup", "store.pack"),
    "store.open_s": ("setup", "store.open"),
    "fleet.tick_self_s": ("self", "fleet.tick"),
    "fleet.telemetry_s": ("incl", "fleet.telemetry"),
    "fleet.shadow_s": ("incl", "fleet.shadow"),
    "fleet.drift_s": ("incl", "fleet.drift"),
    "fleet.rollout_s": ("incl", "fleet.rollout"),
    "fleet.lost_ticks": ("count", "fleet.lost_ticks"),
    "fleet.fallback_ticks": ("count", "fleet.fallback_ticks"),
    "experiments.episode_self_s": ("self", "experiments.episode"),
}


class Tracer:
    """Records spans around the :data:`TARGETS` calls while installed."""

    def __init__(self):
        self.names: List[str] = [ROOT]
        self._name_ids: Dict[str, int] = {ROOT: 0}
        #: One tuple per span: (name id, start, end, parent index, op id,
        #: outermost-of-its-name flag).  Parent -1 marks a root.
        self.spans: List[Optional[tuple]] = []
        #: Counters of op-phase calls (op id >= 0), summed over traced ops.
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []
        self._active: List[int] = [0]
        self._op: Optional[int] = None
        self._patches: List[Tuple[Any, str, Any, Any]] = []
        for module_name, owner_name, attribute, span, counter in TARGETS:
            self._patch(module_name, owner_name, attribute, span, counter)

    # ---------------------------------------------------------------- patches
    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        return self._name_ids[name]

    def _patch(self, module_name, owner_name, attribute, span, counter) -> None:
        module = importlib.import_module(module_name)
        wrapper_for = functools.partial(self._wrap, name_id=self._name_id(span), counter=counter)
        if owner_name is not None:
            owner = getattr(module, owner_name)
            original = owner.__dict__[attribute]
            self._patches.append((owner, attribute, original, wrapper_for(original)))
            return
        # A module function: patch every module that bound the same object,
        # so callers that imported it by name are caught as well.
        original = getattr(module, attribute)
        wrapper = wrapper_for(original)
        for name, other in list(sys.modules.items()):
            if name.startswith("repro") and getattr(other, attribute, None) is original:
                self._patches.append((other, attribute, original, wrapper))

    def _wrap(self, original, name_id: int, counter: Optional[Counter]):
        spans, stack, active, counts = self.spans, self._stack, self._active, self.counts
        clock = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            op = self._op
            if op is None:
                return original(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            outermost = active[name_id] == 0
            stack.append(index)
            active[name_id] += 1
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                active[name_id] -= 1
                stack.pop()
                spans[index] = (name_id, start, end, parent, op, outermost)
            if counter is not None and op >= 0:
                counter(counts, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        for owner, attribute, _original, wrapper in self._patches:
            setattr(owner, attribute, wrapper)

    def uninstall(self) -> None:
        for owner, attribute, original, _wrapper in self._patches:
            setattr(owner, attribute, original)

    # ------------------------------------------------------------------- ops
    def run(self, op_id: int, call: Callable[[], Any]) -> Any:
        """Run ``call`` under a root span, with the wrappers installed.

        ``op_id`` is the op index for timed ops and a negative number for
        set-up repetitions, whose spans feed only the ``setup`` metrics.
        """
        self.install()
        self._op = op_id
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return call()
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (0, start, end, -1, op_id, True)
            self._op = None
            self.uninstall()

    # --------------------------------------------------------------- results
    def self_times(self) -> List[float]:
        """Self time of every span: its duration minus its children's."""
        own = [end - start for _n, start, end, _p, _o, _f in self.spans]
        for _n, start, end, parent, _o, _f in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def layer_metrics(self, program_counts: Dict[str, float]) -> Dict[str, float]:
        """The :data:`LAYER_METRICS` values, per traced op (or set-up rep).

        Two trace-wide figures come with them: ``trace.op_s``, the traced op
        time, and ``trace.attributed_frac``, the share of it that layer spans
        claim.
        """
        roots = [op for _n, _s, _e, parent, op, _f in self.spans if parent < 0]
        per_op = 1.0 / max(sum(op >= 0 for op in roots), 1)
        per_setup = 1.0 / max(sum(op < 0 for op in roots), 1)
        inclusive: Dict[str, float] = defaultdict(float)
        own: Dict[str, float] = defaultdict(float)
        setup: Dict[str, float] = defaultdict(float)
        for span, self_time in zip(self.spans, self.self_times()):
            name_id, start, end, _parent, op, outermost = span
            name = self.names[name_id]
            if op < 0:
                if outermost:
                    setup[name] += end - start
                continue
            own[name] += self_time
            if outermost:
                inclusive[name] += end - start
        counts = defaultdict(float, self.counts)
        counts.update(program_counts)
        metrics: Dict[str, float] = {}
        for name, (kind, source) in LAYER_METRICS.items():
            if kind == "incl":
                metrics[name] = inclusive[source] * per_op
            elif kind == "self":
                metrics[name] = own[source] * per_op
            elif kind == "count":
                metrics[name] = counts[source] * per_op
            elif kind == "ratio":
                numerator, denominator = source
                metrics[name] = counts[numerator] / counts[denominator] if counts[denominator] else 0.0
            else:
                metrics[name] = setup[source] * per_setup
        op_seconds = inclusive[ROOT]
        metrics["trace.op_s"] = op_seconds * per_op
        metrics["trace.attributed_frac"] = (
            (op_seconds - own[ROOT]) / op_seconds if op_seconds > 0 else 0.0
        )
        return metrics

    def dump(self) -> Dict[str, Any]:
        """The spans as columns, for writing once at exit."""
        columns = list(zip(*self.spans)) if self.spans else [()] * 6
        return {
            "names": self.names,
            "name": list(columns[0]),
            "start": list(columns[1]),
            "end": list(columns[2]),
            "parent": list(columns[3]),
            "op": list(columns[4]),
        }
