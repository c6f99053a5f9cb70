"""Run one workload over several seeds and report each metric's spread.

Usage, from the root of a checkout::

    python3 perfbench/spread.py --workload fleet --seeds 1-10 --seconds 16 \\
        --out perfbench/results/fleet-set1.json

Every seed runs ``perfbench/run.py`` in a fresh process, one after another.
The spread of a metric is the distance between the first and third quartile
of its values (``statistics.quantiles(values, n=4)``) as a share of their
median.  Besides the printed metrics it covers two diagnostics taken from the
record each run appends to ``.perfbench/runs.jsonl``: the median op latency
and the work rate.  The output file keeps every run's result line, record and
wall time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUNS = HERE.parent / ".perfbench" / "runs.jsonl"

#: Fields of a run's record summarised alongside its metrics.
DIAGNOSTICS = ("op_p50_ms", "work_per_s")


def _seeds(text: str):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def _values(runs):
    """Every metric's values over ``runs``, plus the recorded diagnostics."""
    values = {
        name: [run["result"]["metrics"][name]["value"] for run in runs]
        for name in runs[0]["result"]["metrics"]
    }
    for name in DIAGNOSTICS:
        values["diagnostic." + name] = [run["record"][name] for run in runs]
    return values


def _last_record(workload: str, seed: int):
    """The record the run just made: the last line of ``runs.jsonl``."""
    with open(RUNS, encoding="utf-8") as runs:
        record = json.loads(runs.readlines()[-1])
    if (record["workload"], record["seed"]) != (workload, seed):
        raise RuntimeError(f"the last record in {RUNS} is not of {workload} seed {seed}")
    return record


def summarise(runs):
    """Median, quartiles and quartile spread of every metric over ``runs``."""
    summary = {}
    for name, values in _values(runs).items():
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        summary[name] = {
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
        }
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="a seed or a range such as 1-10")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    runs = []
    for seed in _seeds(args.seeds):
        command = [
            sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        start = time.perf_counter()
        done = subprocess.run(command, capture_output=True, text=True, timeout=600)
        wall = time.perf_counter() - start
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return done.returncode
        runs.append({
            "seed": seed, "wall_s": wall, "result": json.loads(done.stdout.splitlines()[-1]),
            "record": _last_record(args.workload, seed),
        })
        result = runs[-1]["result"]
        values = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
        print(f"seed {seed} wall {wall:.1f}s ops {result['attempted']} failed {result['failed']} {values}",
              flush=True)

    summary = summarise(runs)
    for name, stats in summary.items():
        print(f"{name:28s} median {stats['median']:.6g}  q1 {stats['q1']:.6g}  "
              f"q3 {stats['q3']:.6g}  spread {100 * stats['spread']:.2f}%")
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(
            {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
             "summary": summary, "runs": runs}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
