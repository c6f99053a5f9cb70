"""Timing loop, set-up repetitions, machine block and host-speed probe.

:func:`measure` runs one workload in this process: prepare its inputs, time
the program's set-up, run untimed warm-up ops, probe the host speed, run
closed-loop ops until the timed phase reaches its length, probe again, and
return the end-to-end metrics (or, traced, the per-layer ones).

The timed phase is the sum of the ops' wall times.  Each op's output is
checked between ops, outside that sum; warm-up ops are checked and counted
too.  An op is not started when the mean op so far says it would end past
the phase length, so a run of multi-second ops stays within its budget.

The host's speed wanders between a fast and a slow state that each last
seconds.  The set-up therefore repeats at even steps through the timed phase
(each repetition replaces the program state the ops use), so ``setup_s``
samples the same host states as the ops do; it is their median.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

import spans

#: Untimed ops between the first set-up and the timed phase.  Two cover both
#: of ``extract``'s scenario cells, so neither first-call costs nor the heap's
#: growth to its working size land in the timed phase or in ``peak_rss_mb``'s
#: dependence on how many ops a run holds.
WARMUP_OPS = 2

#: Length of each host-speed probe, in seconds.
PROBE_SECONDS = 0.3

#: Fixed numpy kernel of the host-speed probe: ``np.unique`` over a column
#: of policy ids, the operation that dominates serving's grouping.
_PROBE_IDS = np.array([f"bench/summer/office-seed{i % 64}-{i % 64:012x}" for i in range(8192)])


def declared_units(root: Path, trace: bool) -> Dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them for this mode.

    The median op latency and the work rate are recorded with every run but
    are not declared: on a host whose speed switches between two states they
    move with the share of the run spent in the slow one (see the README).
    """
    declared = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in declared["per_layer" if trace else "end_to_end"]}


def probe() -> float:
    """Iterations per second of the fixed kernel (a diagnostic, never a metric)."""
    count = 0
    start = time.perf_counter()
    while True:
        np.unique(_PROBE_IDS, return_inverse=True)
        count += 1
        elapsed = time.perf_counter() - start
        if elapsed >= PROBE_SECONDS:
            return count / elapsed


def _blas_threads() -> Optional[int]:
    """The BLAS pool size, asked of the loaded OpenBLAS when there is one."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as maps:
            libraries = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for library in sorted(libraries):
        try:
            handle = ctypes.CDLL(library)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            function = getattr(handle, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return int(function())
    return None


def _git_sha(root: Path) -> Optional[str]:
    """HEAD of the checkout when it is a git work tree (read, not spawned)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine(root: Path) -> Dict[str, Any]:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {
            name: os.environ.get(name)
            for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "git_sha": _git_sha(root),
        "platform": platform.platform(),
    }


def _reset_peak_rss() -> None:
    """Restart the kernel's resident-set high-water mark (``VmHWM``) from now."""
    with open("/proc/self/clear_refs", "w", encoding="ascii") as clear_refs:
        clear_refs.write("5")


def _peak_rss_mb() -> float:
    """``VmHWM`` of this process: its peak resident set since the last reset."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("/proc/self/status has no VmHWM line")


def _percentile_ms(seconds: List[float], q: float) -> float:
    return float(np.percentile(np.asarray(seconds), q)) * 1e3


def measure(workload, seconds: float, trace: bool) -> Dict[str, Any]:
    """Run ``workload`` and return its record (metrics, counts, diagnostics).

    ``peak_rss_mb`` is the peak from the end of ``prepare`` on: the transient
    peak of building the benchmark's own inputs and references is left out,
    while what stays resident (interpreter, modules, inputs) is counted.
    Traced, the timed phase alternates untraced and traced ops, so the
    tracing overhead compares ops that met the same host phases.
    """
    workload.prepare()
    _reset_peak_rss()
    tracer = spans.Tracer() if trace else None
    reps = workload.setup_reps
    setup_times: List[float] = []

    def set_up() -> None:
        rep = len(setup_times)
        start = time.perf_counter()
        own = tracer.run(-1 - rep, workload.setup) if tracer else workload.setup()
        setup_times.append(own if own is not None else time.perf_counter() - start)

    work = 0.0
    attempted = failed = 0
    errors: List[str] = []
    program_counts: Dict[str, float] = {}

    def attempt(traced_op: bool) -> float:
        """Run, time and check op number ``attempted``; return its wall time."""
        nonlocal work, attempted, failed
        index = attempted
        if traced_op:
            before = workload.counters()
        start = time.perf_counter()
        try:
            output = tracer.run(index, lambda: workload.op(index)) if traced_op else workload.op(index)
            error = None
        except Exception as exc:  # a failing op is counted, and the run goes on
            output, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if traced_op:
            for key, value in workload.counters().items():
                program_counts[key] = program_counts.get(key, 0.0) + value - before.get(key, 0.0)
        if error is None and workload.check(index, output):
            work += workload.work(output) if index >= WARMUP_OPS else 0.0
        else:
            failed += 1
            if error is not None and len(errors) < 5:
                errors.append(error)
        attempted += 1
        return elapsed

    set_up()
    for _ in range(WARMUP_OPS):
        attempt(False)
    probe_before = probe()
    untraced: List[float] = []
    traced: List[float] = []
    busy = 0.0
    while True:
        if len(setup_times) < reps and busy >= seconds * len(setup_times) / reps:
            set_up()
        traced_op = tracer is not None and len(untraced) > len(traced)
        elapsed = attempt(traced_op)
        (traced if traced_op else untraced).append(elapsed)
        busy += elapsed
        if tracer is not None and not traced:
            continue
        # Stop at the phase length, or before an op that would overrun it.
        if busy >= seconds or busy + busy / (len(untraced) + len(traced)) > seconds:
            break
    probe_after = probe()
    while len(setup_times) < reps:
        set_up()

    record: Dict[str, Any] = {
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "setup_times_s": setup_times,
        "probe_before_per_s": probe_before,
        "probe_after_per_s": probe_after,
        "timed_s": busy,
        "op_p50_ms": _percentile_ms(untraced, 50),
        "work_per_s": work / busy,
    }
    if tracer is None:
        record["metrics"] = {
            "setup_s": statistics.median(setup_times),
            "op_p90_ms": _percentile_ms(untraced, 90),
            "peak_rss_mb": _peak_rss_mb(),
        }
        return record

    metrics = tracer.layer_metrics(program_counts)
    traced_p50 = _percentile_ms(traced, 50)
    metrics["trace.overhead_frac"] = traced_p50 / record["op_p50_ms"] - 1.0
    record["metrics"] = metrics
    record["overhead"] = {"traced_op_p50_ms": traced_p50, "untraced_op_p50_ms": record["op_p50_ms"]}
    record["spans"] = tracer.dump()
    return record
