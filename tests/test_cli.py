"""The ``repro`` command line: parser contract, flag validation, bench smoke.

The parser contract pins every subcommand's defaults and choices, so the
argparse helpers that several commands share cannot move a flag.  The bench
smoke runs every ``repro bench --target`` at tiny sizes and pins its JSON
keys plus the correctness facts CI gates on.
"""

import json

import pytest

from repro.experiments.cli import build_parser, main

SEASONS = ["winter", "summer"]
BACKENDS = ["serial", "batched", "process"]
DEGRADED = ["fail", "fallback"]
BENCH_TARGETS = [
    "rollout",
    "distill",
    "serve",
    "serve-columnar",
    "serve-sharded",
    "serve-faults",
    "store-cold",
    "fleet",
    "robustness",
]

PARSER_DEFAULTS = {
    "run": {
        "agent": "rule_based", "climate": "pittsburgh", "season": "winter",
        "building": "office", "disturbance": None, "days": 7, "steps": None,
        "episodes": 1, "seed": 0, "backend": "serial", "batch_size": None,
        "workers": None, "agent_arg": [], "output": None,
    },
    "extract": {
        "climate": "pittsburgh", "season": "winter", "seed": 0, "preset": "paper",
        "decision_data": None, "dtype": None, "print_tree": False,
        "max_print_depth": 4, "save": None, "store": None, "refresh": False,
    },
    "agents": {},
    "scenarios": {"climate": None, "season": None, "disturbances": False},
    "climates": {},
    "policies": {
        "store": None, "climate": None, "season": None, "prune_keep": None,
        "verify": False, "pack": None,
    },
    "serve": {
        "store": None, "requests": 10000, "batch_size": 256, "shards": 1,
        "timeout": 60.0, "retries": 2, "degraded": "fail", "climate": "pittsburgh",
        "season": "winter", "seed": 0, "decision_data": None, "arena": None,
        "stats_json": None, "output": None,
    },
    "fleet": {
        "buildings": 256, "ticks": 48, "scenarios": "pittsburgh/winter",
        "days": None, "distinct": 16, "shards": 1, "timeout": 10.0, "retries": 2,
        "degraded": "fail", "canary": 0.0, "corrupt_candidate": False,
        "min_canary_ticks": 16, "drift_teacher": "tree", "drift_sample": 32,
        "drift_threshold": 0.25, "window": 16, "inject_kill": None,
        "no_fallback": False, "store": None, "seed": 0, "decision_data": None,
        "stats_json": None, "output": None,
    },
    "bench": {
        "target": "rollout", "agent": "rule_based", "climate": "pittsburgh",
        "season": "winter", "days": 1, "episodes": 3, "seed": 0,
        "backend": "serial", "batch_size": None, "workers": None, "entries": 96,
        "samples": 64, "mc_runs": 3, "horizon": 5, "rows": 20000,
        "policies": 10000, "buildings": 512, "ticks": 48, "decision_data": None,
        "shards": 4, "timeout": None, "retries": 2, "degraded": "fail",
        "faults": None, "robust_agents": None, "output": None,
    },
    "lint": {
        "root": None, "baseline": None, "no_baseline": False,
        "write_baseline": False, "select": "", "format": "human", "output": None,
        "show_baselined": False,
    },
}

PARSER_CHOICES = {
    "run": {"season": SEASONS, "backend": BACKENDS},
    "extract": {
        "season": SEASONS, "preset": ["paper", "tiny"], "dtype": ["float64", "float32"],
    },
    "agents": {},
    "scenarios": {"season": SEASONS},
    "climates": {},
    "policies": {"season": SEASONS},
    "serve": {"season": SEASONS, "degraded": DEGRADED},
    "fleet": {"degraded": DEGRADED, "drift_teacher": ["tree", "mpc"]},
    "bench": {
        "target": BENCH_TARGETS, "season": SEASONS, "backend": BACKENDS,
        "degraded": DEGRADED,
    },
    "lint": {"format": ["human", "json"]},
}


def _subparsers():
    (action,) = [a for a in build_parser()._actions if a.dest == "command"]
    return action.choices


def test_every_subcommand_is_pinned():
    assert set(_subparsers()) == set(PARSER_DEFAULTS) == set(PARSER_CHOICES)


@pytest.mark.parametrize("command", sorted(PARSER_DEFAULTS))
def test_parser_defaults_are_pinned(command):
    namespace = vars(build_parser().parse_args([command]))
    namespace.pop("func")
    assert namespace == {"command": command, **PARSER_DEFAULTS[command]}


@pytest.mark.parametrize("command", sorted(PARSER_CHOICES))
def test_parser_choices_are_pinned(command):
    choices = {
        action.dest: list(action.choices)
        for action in _subparsers()[command]._actions
        if action.choices is not None
    }
    assert choices == PARSER_CHOICES[command]


# ----------------------------------------------------------- flag validation
@pytest.mark.parametrize(
    "argv",
    [
        ["bench", "--target", "fleet", "--timeout", "0"],
        ["bench", "--target", "fleet", "--retries", "-1"],
        ["bench", "--target", "serve-faults", "--timeout", "0"],
        ["bench", "--target", "serve-columnar", "--batch-size", "-1"],
        ["bench", "--target", "serve", "--rows", "-5"],
        ["serve", "--retries", "-1"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_invalid_serving_flags_exit_2_before_any_work(argv, tmp_path, capsys):
    store = [] if argv[0] == "bench" else ["--store", str(tmp_path / "store")]
    assert main(argv + store) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    # Rejected before any extraction, server or timed loop ran.
    assert captured.out == ""


# ---------------------------------------------------------------- bench smoke
_SERVE_KEYS = {"actions_identical", "batch_size", "benchmark", "policies", "rows"}
_FLEET_KEYS = {
    "benchmark", "building_ticks_per_second", "buildings", "canary_fraction",
    "cpu_count", "drift_alarm_fired", "drift_alarm_latency_ticks",
    "fallback_ticks", "kill_tick", "lost_ticks", "min_canary_ticks", "promoted",
    "restarts", "rolled_back", "serve_latency_p50_ms", "serve_latency_p99_ms",
    "shards", "tick_latency_p50_ms", "tick_latency_p99_ms", "ticks",
    "ticks_per_second",
}
_FLEET_FACTS = {
    "promoted": True, "rolled_back": True, "drift_alarm_fired": True, "lost_ticks": 0,
}

BENCH_SMOKE = {
    "rollout": (
        ["--target", "rollout"],
        {
            "agent", "backend", "batch_size", "benchmark", "cpu_count", "days", "episodes",
            "mean_steps_per_second", "per_episode_steps_per_second", "scenario",
            "setup_seconds_per_episode", "steps_per_episode",
        },
        {},
    ),
    "distill": (
        ["--target", "distill", "--entries", "8"],
        {
            "batched_seconds_per_entry", "benchmark", "entries",
            "float32_label_agreement", "float32_seconds_per_entry",
            "float32_speedup", "labels_identical", "monte_carlo_runs",
            "optimizer_samples", "planning_horizon", "serial_seconds_per_entry",
            "speedup",
        },
        {"labels_identical": True},
    ),
    "serve": (
        ["--target", "serve", "--rows", "4000"],
        {
            "actions_identical", "benchmark", "cache_hit", "cache_speedup",
            "compiled_rows_per_second", "extract_seconds",
            "recursive_rows_per_second", "rows", "server_requests_per_second",
            "speedup", "store_hit_seconds", "tree_depth", "tree_leaves", "tree_nodes",
        },
        {"actions_identical": True, "cache_hit": True},
    ),
    "serve-columnar": (
        ["--target", "serve-columnar", "--rows", "4000"],
        _SERVE_KEYS
        | {"columnar_requests_per_second", "reference_requests_per_second", "speedup"},
        {"actions_identical": True},
    ),
    "serve-sharded": (
        ["--target", "serve-sharded", "--shards", "2", "--rows", "4000"],
        _SERVE_KEYS
        | {
            "cpu_count", "sharded_requests_per_second", "shards",
            "single_process_requests_per_second", "speedup",
        },
        {"actions_identical": True},
    ),
    "serve-faults": (
        ["--target", "serve-faults", "--shards", "2", "--rows", "4000"],
        _SERVE_KEYS
        | {
            "cpu_count", "degraded", "errors_raised", "fallback_rows", "faults",
            "fleet_requests_total", "hang_recovery_seconds",
            "kill_recovery_seconds", "median_batch_seconds", "requests_lost",
            "restarts", "retries", "retries_used", "shards", "timeout_seconds",
        },
        {"actions_identical": True, "requests_lost": 0},
    ),
    "fleet-1-shard": (
        ["--target", "fleet", "--shards", "1", "--buildings", "16", "--ticks", "8"],
        _FLEET_KEYS,
        _FLEET_FACTS,
    ),
    "fleet-2-shards": (
        ["--target", "fleet", "--shards", "2", "--buildings", "16", "--ticks", "8"],
        _FLEET_KEYS,
        _FLEET_FACTS,
    ),
    "robustness": (
        [
            "--target", "robustness", "--robust-agents", "rule_based,pid",
            "--faults", "clean,sensor_noise", "--episodes", "1", "--days", "1",
        ],
        {
            "agents", "backend", "benchmark", "days", "dt_vs_teacher_comfort_gap",
            "episodes", "faults", "rows", "scenario", "seed",
        },
        {
            "agents": ["rule_based", "pid"],
            "faults": ["clean", "sensor_noise"],
            "dt_vs_teacher_comfort_gap": {},
        },
    ),
}


@pytest.mark.parametrize("case", sorted(BENCH_SMOKE))
def test_bench_target_smoke(case, tmp_path, capsys):
    argv, keys, facts = BENCH_SMOKE[case]
    output = tmp_path / "bench.json"
    assert main(["bench", *argv, "--output", str(output)]) == 0
    payload = json.loads(output.read_text())
    assert set(payload) == keys
    assert payload["benchmark"] == argv[1]
    assert {key: payload[key] for key in facts} == facts
    if case == "robustness":
        assert len(payload["rows"]) == 4
