"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve-mixed --seed 1 --seconds 16 --trace 0

The workload runs in this process against the package in ``src/``.  With
``--trace 0`` the last line of standard output is one JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
run that alternates untraced and traced ops.  Each run appends its record
(machine block, host-speed probe, set-up repetitions) to
``.perfbench/runs.jsonl`` and a traced run writes its spans to
``.perfbench/traces/``, both at the root of the checkout.
"""

from __future__ import annotations

import os

# BLAS/OpenMP pools are pinned to one thread before numpy is first imported.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

import argparse
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path
from typing import Optional, Sequence

import harness
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"


def _parse(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def result_line(record: dict, units: dict) -> str:
    """The final JSON line: correctness, op counts and the metrics with units.

    ``units`` are the declared metrics of this mode; the record must hold
    exactly those.
    """
    metrics = record["metrics"]
    if set(metrics) != set(units):
        raise RuntimeError(f"measured metrics {sorted(metrics)} differ from the declared {sorted(units)}")
    return json.dumps(
        {
            "correct": record["failed"] == 0,
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        }
    )


def main(argv: Optional[Sequence[str]] = None, **sizes) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no package to measure at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    units = harness.declared_units(ROOT, bool(args.trace))
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(parents=True, exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, work_dir, **sizes)
        try:
            record = harness.measure(workload, args.seconds, bool(args.trace))
        finally:
            workload.close()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    line = result_line(record, units)
    spans = record.pop("spans", None)
    header = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "finished_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "machine": harness.machine(ROOT),
    }
    with open(OUT / "runs.jsonl", "a", encoding="utf-8") as runs:
        runs.write(json.dumps({**header, **record}) + "\n")
    if spans is not None:
        (OUT / "traces").mkdir(exist_ok=True)
        trace_path = OUT / "traces" / f"{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps(spans))

    print(f"workload {args.workload} seed {args.seed}: {record['attempted']} ops, "
          f"{record['failed']} failed, timed {record['timed_s']:.2f} s, "
          f"untraced op p50 {record['op_p50_ms']:.3f} ms, work {record['work_per_s']:.6g}/s (diagnostics)")
    print(f"machine {json.dumps(header['machine'])}")
    print(f"host probe {record['probe_before_per_s']:.1f}/s before, "
          f"{record['probe_after_per_s']:.1f}/s after the timed phase")
    print(f"set-up repetitions (s) {json.dumps(record['setup_times_s'])}")
    for error in record["errors"]:
        print(f"op error: {error}")
    if "overhead" in record:
        overhead = record["overhead"]
        print(f"tracing overhead: traced op_p50_ms {overhead['traced_op_p50_ms']:.3f} vs "
              f"untraced {overhead['untraced_op_p50_ms']:.3f} "
              f"({100 * record['metrics']['trace.overhead_frac']:+.1f}%)")
    print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
