"""Command-line front door: ``python -m repro`` (or the ``repro`` script).

Subcommands::

    repro run       evaluate a registered agent on a scenario
    repro extract   run the extract-verify-deploy pipeline, print Table-2 stats
    repro agents    list registered agents and aliases
    repro scenarios list the scenario grid (climate × season × building)
    repro climates  list climate profiles and descriptor aliases
    repro policies  list/prune/verify the policy store
    repro serve     drive the compiled policy server with a request stream
    repro fleet     run the closed-loop simulated fleet (canary/shadow/drift)
    repro bench     time rollouts, distillation or serving, write a baseline JSON

Examples::

    python -m repro run --agent rule_based --climate pittsburgh --steps 96
    python -m repro run --agent dt --climate hot_humid --season summer
    python -m repro extract --climate tucson --preset tiny --save policy.json
    python -m repro extract --preset tiny --dtype float32
    python -m repro serve --requests 100000 --batch-size 512
    python -m repro serve --requests 500000 --batch-size 8192 --shards 4
    python -m repro bench --target serve-columnar --rows 100000
    python -m repro bench --target serve-sharded --rows 200000 --shards 4
    python -m repro bench --target serve-faults --rows 40000 --shards 4
    python -m repro serve --shards 4 --retries 3 --degraded fallback
    python -m repro fleet --buildings 1024 --ticks 48 --shards 2 --canary 0.25
    python -m repro fleet --buildings 256 --canary 0.25 --corrupt-candidate
    python -m repro bench --target fleet --buildings 512 --ticks 48 --shards 2
    python -m repro policies --verify
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from typing import Dict, List, Optional, Tuple

from repro.analysis.reprolint import add_lint_arguments, run_lint_command
from repro.utils.serialization import save_json, to_jsonable
from repro.utils.tables import format_table


class CLIError(Exception):
    """A user-input problem (bad name, invalid value) — reported without a traceback."""


def _resolve(build, *args, **kwargs):
    """Run a lookup/validation step, converting its errors to CLIError."""
    try:
        return build(*args, **kwargs)
    except (KeyError, ValueError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        raise CLIError(message) from exc


def _check_flags(args: argparse.Namespace) -> None:
    """Reject out-of-range sizes and server settings before any work starts."""
    for dest in ("rows", "requests", "batch_size", "buildings", "ticks", "shards", "timeout"):
        value = getattr(args, dest, None)
        if value is not None and not value > 0:
            raise CLIError(f"--{dest.replace('_', '-')} must be positive")
    if getattr(args, "retries", 0) < 0:
        raise CLIError("--retries must be non-negative")


def _write_json(payload, path: Optional[str]) -> None:
    """Write ``payload`` as JSON to ``path`` when one was given."""
    if path:
        save_json(payload, path)
        print(f"Wrote {path}")


def _parse_agent_args(pairs: List[str]) -> Dict:
    """Parse repeated ``--agent-arg key=value`` options (values via JSON when possible)."""
    config: Dict = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"--agent-arg expects key=value, got {pair!r}")
        key, raw = pair.split("=", 1)
        try:
            config[key] = json.loads(raw)
        except json.JSONDecodeError:
            config[key] = raw
    return config


def _experiment_runner(args: argparse.Namespace, *parts: Optional[str], **options):
    """The runner of ``--episodes`` on scenario ``--climate/--season[/parts]``.

    ``--days``, ``--seed``, ``--backend``, ``--batch-size`` and ``--workers``
    configure it; ``options`` are further runner arguments.
    """
    from repro.experiments.runner import ExperimentRunner
    from repro.experiments.scenarios import ScenarioSpec

    scenario = _resolve(
        ScenarioSpec.from_name,
        "/".join(p for p in (args.climate, args.season, *parts) if p),
        days=args.days,
    )
    return _resolve(
        ExperimentRunner,
        scenario,
        episodes=args.episodes,
        base_seed=args.seed,
        backend=args.backend,
        batch_size=args.batch_size,
        workers=args.workers,
        **options,
    )


# ------------------------------------------------------------------ commands
def cmd_run(args: argparse.Namespace) -> int:
    from repro.agents.registry import canonical_name
    from repro.experiments.runner import ExperimentResult

    runner = _experiment_runner(args, args.building, args.disturbance, max_steps=args.steps)
    agent = _resolve(canonical_name, args.agent)
    result = runner.run(agent, agent_config=_parse_agent_args(args.agent_arg))
    print(format_table(ExperimentResult.SUMMARY_HEADER, [result.summary_row()]))
    _write_json(result.to_dict(), args.output)
    return 0


def cmd_extract(args: argparse.Namespace) -> int:
    from repro.core.pipeline import VerifiedPolicyPipeline

    config = _pipeline_config(
        args,
        tiny=args.preset == "tiny",
        **({} if args.dtype is None else {"dtype": args.dtype}),
    )
    result = VerifiedPolicyPipeline(config, store=args.store).run(refresh=args.refresh)
    if result.store_key:
        verb = "Loaded" if result.cache_hit else "Stored"
        print(f"{verb} policy {result.store_key}")

    summary = result.summary_dict()
    rows = [[key, summary[key]] for key in sorted(summary) if key != "stage_seconds"]
    print(format_table(["metric", "value"], rows))
    if args.print_tree:
        print(result.describe(max_depth=args.max_print_depth))
    if args.save:
        result.save_policy(args.save)
        print(f"Wrote {args.save}")
    return 0


def cmd_agents(_args: argparse.Namespace) -> int:
    from repro.agents.registry import agent_aliases, agent_summaries

    aliases_by_name: Dict[str, List[str]] = {}
    for alias, target in agent_aliases().items():
        aliases_by_name.setdefault(target, []).append(alias)
    rows = [
        [name, ", ".join(sorted(aliases_by_name.get(name, []))) or "-", summary]
        for name, summary in agent_summaries().items()
    ]
    print(format_table(["agent", "aliases", "description"], rows))
    return 0


def cmd_scenarios(args: argparse.Namespace) -> int:
    from repro.env.disturbances import DISTURBANCES
    from repro.experiments.scenarios import scenario_grid

    if args.disturbances:
        rows = [
            [name, ", ".join(sorted(spec.active_components())) or "-"]
            for name, spec in sorted(DISTURBANCES.items())
        ]
        print(format_table(["disturbance", "active fault components"], rows))
        return 0
    grid = _resolve(
        scenario_grid,
        cities=[args.climate] if args.climate else None,
        seasons=[args.season] if args.season else None,
    )
    rows = [[s.name, s.city, s.season, s.building, s.days] for s in grid]
    print(format_table(["scenario", "city", "season", "building", "days"], rows))
    return 0


def cmd_climates(_args: argparse.Namespace) -> int:
    from repro.weather.climates import available_climate_aliases, available_climates, get_climate

    rows = []
    for name in available_climates():
        profile = get_climate(name)
        rows.append(
            [
                name,
                profile.ashrae_zone,
                profile.january_mean_c,
                profile.monthly_mean_c(7),
            ]
        )
    print(format_table(["city", "ASHRAE", "Jan mean °C", "Jul mean °C"], rows))
    alias_rows = [[alias, city] for alias, city in sorted(available_climate_aliases().items())]
    print(format_table(["alias", "city"], alias_rows))
    return 0


def _open_store(path):
    from repro.store import PolicyStore

    return PolicyStore(path) if path else PolicyStore()


def cmd_policies(args: argparse.Namespace) -> int:
    from repro.weather.climates import get_climate

    store = _open_store(args.store)
    # Store paths use canonical city names; accept descriptor aliases like
    # every other subcommand.
    city = _resolve(get_climate, args.climate).name if args.climate else None
    if args.prune_keep is not None:
        removed = _resolve(
            store.prune, keep=args.prune_keep, city=city, season=args.season
        )
        print(f"Pruned {len(removed)} artifact(s) from {store.root}")
    if args.pack is not None:
        # Pack before verify so a --pack --verify run checks the fresh arena.
        target = None if args.pack is True else args.pack
        arena_path = _resolve(store.pack, path=target, city=city, season=args.season)
        print(f"Packed arena {arena_path} ({arena_path.stat().st_size} bytes)")
    if args.verify:
        report = store.verify()
        bad = [name for name, ok in report.items() if not ok]
        print(f"Integrity: {len(report) - len(bad)}/{len(report)} artifacts OK")
        for name in bad:
            print(f"  CORRUPT: {name}")
    from repro.store import StoreEntry

    entries = store.entries(city=city, season=args.season)
    if not entries:
        print(f"No stored policies under {store.root}")
        return 0
    print(format_table(StoreEntry.ROW_HEADER, [entry.as_row() for entry in entries]))
    return 0


def _pipeline_config(
    args: argparse.Namespace, *, city=None, season=None, seed=None, tiny=True, **fields
):
    """The pipeline config of ``--climate``/``--season``/``--seed``/``--decision-data``.

    ``city``, ``season`` and ``seed`` replace their flags (a fleet scenario's
    city and season, a bench's per-policy seed); ``tiny`` picks the CI-sized
    preset over the paper's; ``fields`` are further config overrides.
    """
    from repro.core.pipeline import PipelineConfig
    from repro.weather.climates import get_climate

    fields.update(
        city=_resolve(get_climate, city or args.climate).name,
        season=season or args.season,
        seed=args.seed if seed is None else seed,
    )
    if args.decision_data is not None:
        fields["num_decision_data"] = args.decision_data
    return _resolve(PipelineConfig.tiny if tiny else PipelineConfig, **fields)


def _ensure_policy(store, config) -> str:
    """Name of a stored policy for ``config``'s city and season, extracting one if none."""
    from repro.core.pipeline import VerifiedPolicyPipeline

    entries = store.entries(city=config.city, season=config.season)
    if entries:
        return entries[0].key.name
    print(
        f"Store {store.root} has no {config.city}/{config.season} policy; "
        "extracting a tiny one..."
    )
    result = VerifiedPolicyPipeline(config, store=store).run()
    print(f"Stored policy {result.store_key}")
    return result.store_key


@contextlib.contextmanager
def _scratch_store(args: argparse.Namespace, policies: int):
    """A temporary store of ``policies`` tiny policies.

    They are extracted at seeds ``--seed``, ``--seed`` + 1, ..., so each one
    is a distinct policy.
    """
    import tempfile

    from repro.core.pipeline import VerifiedPolicyPipeline
    from repro.store import PolicyStore

    with tempfile.TemporaryDirectory(prefix="repro-bench-store-") as scratch:
        store = PolicyStore(scratch)
        for seed in range(args.seed, args.seed + policies):
            VerifiedPolicyPipeline(_pipeline_config(args, seed=seed), store=store).run()
        yield store


#: Plausible sampling ranges for the Table-1 observation vector, used to
#: synthesise a serving request stream (zone temp, outdoor temp, humidity,
#: wind, solar, occupants).
_OBSERVATION_RANGES = [(10.0, 35.0), (-20.0, 40.0), (0.0, 100.0), (0.0, 15.0), (0.0, 1000.0), (0.0, 60.0)]


def _synthetic_observations(rng, rows: int, dim: int):
    import numpy as np

    if dim == len(_OBSERVATION_RANGES):
        low, high = (np.array(r) for r in zip(*_OBSERVATION_RANGES))
    else:
        low, high = -10.0, 40.0
    return rng.uniform(low, high, size=(rows, dim))


def _round_robin_traffic(store, rows: int, seed: int):
    """``(policy_ids, assigned, observations)``: ``rows`` requests over every stored policy.

    Buildings are interleaved round-robin, so every batch mixes policies —
    the server's single forest descent is what keeps that vectorised.
    """
    import numpy as np

    policy_ids = [entry.key.name for entry in store.entries()]
    dim = store.find(policy_ids[0]).policy.input_dim
    observations = _synthetic_observations(np.random.default_rng(seed), rows, dim)
    assigned = np.array(policy_ids)[np.arange(rows) % len(policy_ids)]
    return policy_ids, assigned, observations


def _serve_stream(server, assigned, observations, batch_size: int, warmup=False, faults=()):
    """Serve the traffic in ``batch_size``-row ``serve_columnar`` batches.

    Returns every row's action index and the seconds of each batch (building
    it, serving it, storing its actions).  ``warmup`` first serves batch 0
    once, untimed, so policy compilation and worker start-up stay out of the
    timings; ``faults`` are ``(batch, Fault)`` pairs injected just before
    that batch.
    """
    import time

    import numpy as np

    from repro.serving import PolicyRequestBatch

    def batch(lo: int):
        return PolicyRequestBatch(
            policy_ids=assigned[lo : lo + batch_size],
            observations=observations[lo : lo + batch_size],
        )

    if warmup:
        server.serve_columnar(batch(0))
    actions = np.empty(len(assigned), dtype=np.int64)
    seconds = []
    for index, lo in enumerate(range(0, len(assigned), batch_size)):
        for at, fault in faults:
            if at == index:
                server.inject_fault(fault)
        start = time.perf_counter()
        actions[lo : lo + batch_size] = server.serve_columnar(batch(lo)).action_indices
        seconds.append(time.perf_counter() - start)
    return actions, seconds


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.serving import ShardedPolicyServer

    store = _open_store(args.store)
    if not store.entries():
        _ensure_policy(store, _pipeline_config(args))
    # --arena maps straight onto resolve_arena(): absent -> auto-detect,
    # bare flag -> require, PATH -> open that file.
    arena = True if args.arena is True else (args.arena if args.arena else None)
    # One server for every shard count: at --shards 1 it is an in-process
    # PolicyServer behind the same API, with no workers to spawn.
    server = _resolve(
        ShardedPolicyServer,
        store=store,
        num_shards=args.shards,
        timeout=args.timeout,
        retries=args.retries,
        degraded=args.degraded,
        arena=arena,
    )
    if server.arena_error:
        print(f"arena skipped: {server.arena_error}")
    policy_ids, assigned, observations = _round_robin_traffic(store, args.requests, args.seed)
    try:
        _, seconds = _serve_stream(server, assigned, observations, args.batch_size)
        stats = server.stats()
    finally:
        # A serving error must not strand the worker fleet, its rings, or an
        # arena mapping the server opened itself.
        server.close()
    wall = sum(seconds)
    summary = {
        "requests": args.requests,
        "batch_size": args.batch_size,
        "shards": args.shards,
        "policies": len(policy_ids),
        "wall_seconds": wall,
        "requests_per_second": args.requests / wall if wall > 0 else float("inf"),
        "server_stats": stats,
    }
    print(
        format_table(
            ["requests", "policies", "batch", "shards", "wall s", "req/s"],
            [[args.requests, len(policy_ids), args.batch_size, args.shards,
              round(wall, 4), round(summary["requests_per_second"], 1)]],
        )
    )
    supervisor = stats.get("supervisor")
    if supervisor:
        # Fleet health: one row per shard from the supervisor's describe().
        print(
            format_table(
                ["shard", "pid", "alive", "gen", "restarts", "heartbeat age s"],
                [
                    [
                        shard,
                        shard_state["pid"],
                        str(shard_state["alive"]),
                        shard_state["generation"],
                        shard_state["restarts"],
                        round(shard_state["last_heartbeat_age_seconds"], 2),
                    ]
                    for shard, shard_state in sorted(supervisor["shards"].items())
                ],
            )
        )
        fleet_counters = stats.get("fleet", {})
        print(
            f"fleet: restarts={supervisor['restarts']} "
            f"retries={fleet_counters.get('retries', 0)} "
            f"fallback_rows={fleet_counters.get('fallback_rows', 0)} "
            f"lost_requests={fleet_counters.get('lost_requests', 0)}"
        )
    # Machine-readable fleet/supervisor counters: CI and the fleet loop
    # assert on restarts / lost_requests without scraping tables.
    _write_json(stats, args.stats_json)
    _write_json(summary, args.output)
    return 0


def _corrupted_clone(policy):
    """Clone a tree policy with every leaf forced to its most aggressive action.

    The deliberately-broken candidate of the rollout tests: structurally a
    valid policy (so it registers and serves normally) whose decisions
    maximally disagree with any sane teacher — the drift detector must catch
    it during the canary.
    """
    from repro.core.tree_policy import TreePolicy

    clone = TreePolicy.from_dict(policy.to_dict())
    extreme = max(clone.action_pairs, key=lambda pair: (pair[0], -pair[1]))
    for leaf in clone.leaves():
        clone.set_leaf_action(leaf, *extreme)
    return clone


def _build_mpc_teacher(config):
    """Wrap the RS optimizer as a drift teacher with ``config``'s hyper-parameters.

    The dynamics model is trained from scratch on ``config``'s city, season
    and seed, the way the pipeline trains the one its policies are
    distilled from.
    """
    from repro.agents.random_shooting import RandomShootingOptimizer
    from repro.agents.rule_based import RuleBasedAgent
    from repro.env.dataset import collect_historical_data
    from repro.env.hvac_env import make_environment
    from repro.fleet import MPCTeacher
    from repro.nn.dynamics import ThermalDynamicsModel

    seed = config.seed
    environment = make_environment(
        city=config.city, days=config.historical_days, seed=seed, season=config.season
    )
    data = collect_historical_data(
        environment, RuleBasedAgent.from_config(environment), seed=seed + 1
    )
    dynamics_model = ThermalDynamicsModel(hidden_sizes=config.hidden_sizes, seed=seed + 2)
    dynamics_model.fit(data, epochs=config.training_epochs, seed=seed + 3)
    optimizer = RandomShootingOptimizer(
        dynamics_model=dynamics_model,
        action_space=environment.action_space,
        reward_config=environment.config.reward,
        action_config=environment.config.actions,
        num_samples=config.optimizer_samples,
        horizon=config.planning_horizon,
        discount=config.discount,
        seed=seed + 4,
    )
    return MPCTeacher(
        optimizer,
        environment.action_space.pairs,
        monte_carlo_runs=config.monte_carlo_runs,
        planning_horizon=config.planning_horizon,
        seed=seed + 5,
    )


def _run_fleet(
    store,
    groups,
    args: argparse.Namespace,
    *,
    timeout: float,
    incumbent: str,
    candidate,
    canary: float,
    min_canary_ticks: int,
    window: int,
    teacher,
    drift_sample: int,
    drift_threshold: float,
    drift_min_ticks: int,
    inject_kill: Optional[int],
    fallback: bool = True,
):
    """Run ``args.ticks`` fleet ticks through a sharded server over ``store``.

    A ``candidate`` ``(policy_id, policy)`` is registered and canaried on
    ``canary`` of the buildings, gated by a shadow evaluator and a drift
    detector auditing against ``teacher``.  ``inject_kill`` kills, at that
    tick, the shard serving the candidate (the incumbent without one).
    Returns the loop and the final server stats; the server is closed
    either way.
    """
    from repro.fleet import DriftDetector, FleetLoop, RolloutManager, ShadowEvaluator
    from repro.serving import Fault, ShardedPolicyServer, shard_for_policy

    rollout = shadow = drift = None
    if candidate is not None:
        rollout = RolloutManager(
            incumbent, candidate[0], canary_fraction=canary, min_canary_ticks=min_canary_ticks
        )
        env_config = groups[0].env.environments[0].config
        shadow = ShadowEvaluator(
            env_config.reward.comfort.lower,
            env_config.reward.comfort.upper,
            *env_config.actions.off_setpoints(),
            window=window,
        )
        drift = DriftDetector(
            teacher,
            sample_size=drift_sample,
            window=window,
            threshold=drift_threshold,
            min_ticks=drift_min_ticks,
            baseline_policy_id=incumbent,
            seed=args.seed + 7,
        )
    server = _resolve(
        ShardedPolicyServer,
        store=store,
        num_shards=args.shards,
        timeout=timeout,
        retries=args.retries,
        degraded=args.degraded,
    )
    try:
        loop = FleetLoop(
            server, groups, rollout=rollout, shadow=shadow, drift=drift, fallback=fallback
        )
        if candidate is not None:
            server.register(*candidate)
            rollout.begin_canary(0)
        kill_shard = shard_for_policy(candidate[0] if candidate else incumbent, args.shards)
        for tick in range(args.ticks):
            if tick == inject_kill:
                server.inject_fault(Fault(kind="kill", shard=kill_shard))
            loop.tick()
        stats = server.stats()
    finally:
        server.close()
    return loop, stats


def cmd_fleet(args: argparse.Namespace) -> int:
    from repro.core.tree_policy import TreePolicy
    from repro.experiments.scenarios import ScenarioSpec
    from repro.fleet import FleetGroup, TreePolicyTeacher

    if not 0.0 <= args.canary <= 1.0:
        raise CLIError("--canary must be a fraction in [0, 1]")
    if args.inject_kill is not None and args.shards < 2:
        raise CLIError("--inject-kill needs --shards >= 2")
    scenario_names = [name.strip() for name in args.scenarios.split(",") if name.strip()]
    if not scenario_names:
        raise CLIError("--scenarios must name at least one scenario")
    specs = [_resolve(ScenarioSpec.from_name, name) for name in scenario_names]

    store = _open_store(args.store)
    incumbents = [
        _ensure_policy(store, _pipeline_config(args, city=spec.city, season=spec.season))
        for spec in specs
    ]
    per_group = [
        args.buildings // len(scenario_names)
        + (1 if index < args.buildings % len(scenario_names) else 0)
        for index in range(len(scenario_names))
    ]
    groups = [
        _resolve(
            FleetGroup.from_scenario,
            name,
            policy_id=incumbent,
            num_buildings=count,
            base_seed=args.seed + 1000 * index,
            distinct=args.distinct,
            days=args.days,
        )
        for index, (name, incumbent, count) in enumerate(
            zip(scenario_names, incumbents, per_group)
        )
        if count > 0
    ]

    candidate = teacher = None
    if args.canary > 0:
        stored = store.find(incumbents[0])
        if stored is None:
            raise CLIError(f"Incumbent {incumbents[0]} vanished from the store")
        incumbent_policy = stored.policy
        if args.corrupt_candidate:
            candidate = ("candidate-corrupted", _corrupted_clone(incumbent_policy))
        else:
            candidate = ("candidate-healthy", TreePolicy.from_dict(incumbent_policy.to_dict()))
        if args.drift_teacher == "mpc":
            teacher = _build_mpc_teacher(
                _pipeline_config(
                    args, city=specs[0].city, season=specs[0].season, seed=args.seed + 100
                )
            )
        else:
            teacher = TreePolicyTeacher(incumbent_policy)

    loop, stats = _run_fleet(
        store,
        groups,
        args,
        timeout=args.timeout,
        incumbent=incumbents[0],
        candidate=candidate,
        canary=args.canary,
        min_canary_ticks=args.min_canary_ticks,
        window=args.window,
        teacher=teacher,
        drift_sample=args.drift_sample,
        drift_threshold=args.drift_threshold,
        drift_min_ticks=max(2, args.window // 2),
        inject_kill=args.inject_kill,
        fallback=not args.no_fallback,
    )
    report = loop.report()
    report["server_stats"] = stats
    telemetry = report["telemetry"]
    latency = report["tick_latency_seconds"]
    print(
        format_table(
            ["buildings", "ticks", "ticks/s", "p50 ms", "p99 ms", "fallback", "lost", "state"],
            [[
                report["buildings"],
                report["ticks"],
                round(report["ticks_per_second"], 2),
                round(latency["p50"] * 1e3, 2),
                round(latency["p99"] * 1e3, 2),
                telemetry["fallback_ticks"],
                telemetry["lost_ticks"],
                loop.rollout.state if loop.rollout is not None else "-",
            ]],
        )
    )
    if loop.rollout is not None:
        for event in report["rollout"]["events"]:
            print(f"tick {event['tick']}: {event['previous']} -> {event['state']} ({event['reason']})")
    _write_json(stats, args.stats_json)
    _write_json(report, args.output)
    return 0


#: The rollout bench repeats its run until the timed rollout loops add up to
#: at least this many seconds: a single 1-day, 3-episode serial run lasts
#: ~0.1 s, and its throughput spread 3.4-5.4k steps/s over six runs.
_ROLLOUT_BENCH_MIN_SECONDS = 1.0


def _bench_rollout(args: argparse.Namespace) -> Dict:
    """Rollout throughput: total steps over the total timed wall of repeated runs.

    The timed wall is the runner's own episode timing (the rollout loops,
    without environment or agent construction).  Each per-episode figure
    pools that episode's repeats.  Each ``runner.run`` call is also timed
    whole: ``setup_seconds_per_episode`` is that wall minus the rollout
    loops', over the episodes run (building each episode's environment,
    traces included, and agent).
    """
    import os
    import time

    from repro.agents.registry import canonical_name

    runner = _experiment_runner(args)
    agent = _resolve(canonical_name, args.agent)
    episode_steps = [0] * args.episodes
    episode_wall = [0.0] * args.episodes
    run_wall = 0.0
    episodes_run = 0
    while sum(episode_wall) < _ROLLOUT_BENCH_MIN_SECONDS:
        start = time.perf_counter()
        result = runner.run(agent)
        run_wall += time.perf_counter() - start
        episodes_run += result.num_episodes
        for i, episode in enumerate(result.episodes):
            episode_steps[i] += episode.steps
            episode_wall[i] += episode.wall_seconds
    return {
        "benchmark": "rollout",
        "scenario": runner.scenario.name,
        "agent": result.agent,
        "days": args.days,
        "episodes": args.episodes,
        "backend": args.backend,
        "batch_size": args.batch_size,
        "steps_per_episode": result.total_steps // max(result.num_episodes, 1),
        "mean_steps_per_second": sum(episode_steps) / sum(episode_wall),
        "setup_seconds_per_episode": (run_wall - sum(episode_wall)) / episodes_run,
        "cpu_count": os.cpu_count(),
        # Per-episode timings are redundant for the batched backend (the
        # batch shares one wall clock, so every episode reports the same
        # aggregate throughput).
        **(
            {
                "per_episode_steps_per_second": [
                    steps / wall for steps, wall in zip(episode_steps, episode_wall)
                ]
            }
            if args.backend != "batched"
            else {}
        ),
    }


def _bench_distill(args: argparse.Namespace) -> Dict:
    """Time serial vs. batched vs. float32-batched Monte-Carlo distillation.

    The float32 row measures the dtype-policy fast path
    (``set_inference_dtype("float32")``) against the float64 batched
    reference on the same inputs and reports the label-agreement rate —
    the distilled labels are a vote over many stochastic plans, so tiny
    per-prediction rounding differences rarely flip a label.  Each path
    reports the best of three runs on the same inputs and seed (one run's
    ratio swings with the host's load); the repeats must return identical
    labels.
    """
    import numpy as np

    from repro.agents.random_shooting import RandomShootingOptimizer
    from repro.agents.rule_based import RuleBasedAgent
    from repro.core.decision_dataset import DecisionDatasetGenerator
    from repro.core.sampling import AugmentedHistoricalSampler
    from repro.env.dataset import collect_historical_data
    from repro.env.hvac_env import make_environment
    from repro.nn.dynamics import ThermalDynamicsModel

    environment = make_environment(city=args.climate, days=2, seed=args.seed, season=args.season)
    data = collect_historical_data(
        environment, RuleBasedAgent.from_config(environment), seed=args.seed + 1
    )
    # Paper-shaped (64, 64) model: distillation cost is dominated by its
    # matmuls, which is exactly what the float32 row is meant to expose.
    model = ThermalDynamicsModel(hidden_sizes=(64, 64), seed=args.seed + 2)
    model.fit(data, epochs=15, seed=args.seed + 3)
    optimizer = RandomShootingOptimizer(
        dynamics_model=model,
        action_space=environment.action_space,
        reward_config=environment.config.reward,
        action_config=environment.config.actions,
        num_samples=args.samples,
        horizon=args.horizon,
        seed=args.seed + 4,
    )
    generator = DecisionDatasetGenerator(
        optimizer=optimizer,
        sampler=AugmentedHistoricalSampler.from_dataset(data),
        action_pairs=environment.action_space.pairs,
        monte_carlo_runs=args.mc_runs,
        planning_horizon=args.horizon,
    )
    # Three rounds over the three paths, interleaved so that a change in the
    # host's speed during the bench reaches every path alike.
    paths = {
        "serial": ("serial", "float64"),
        "batched": ("batched", "float64"),
        "float32": ("batched", "float32"),
    }
    runs: Dict[str, List] = {name: [] for name in paths}
    for _ in range(3):
        for name, (method, dtype) in paths.items():
            model.set_inference_dtype(dtype)
            runs[name].append(generator.generate(args.entries, seed=args.seed, method=method))
    model.set_inference_dtype("float64")
    for name, repeats in runs.items():
        if not all(np.array_equal(run.action_labels, repeats[0].action_labels) for run in repeats):
            raise RuntimeError(f"repeated {name} distillation runs returned different labels")
    serial, batched, float32 = (
        min(repeats, key=lambda run: run.generation_seconds_per_entry)
        for repeats in runs.values()
    )
    return {
        "benchmark": "distill",
        "entries": args.entries,
        "monte_carlo_runs": args.mc_runs,
        "optimizer_samples": args.samples,
        "planning_horizon": args.horizon,
        "serial_seconds_per_entry": serial.generation_seconds_per_entry,
        "batched_seconds_per_entry": batched.generation_seconds_per_entry,
        "speedup": serial.generation_seconds_per_entry
        / max(batched.generation_seconds_per_entry, 1e-12),
        "labels_identical": bool(np.array_equal(serial.action_labels, batched.action_labels)),
        "float32_seconds_per_entry": float32.generation_seconds_per_entry,
        "float32_speedup": batched.generation_seconds_per_entry
        / max(float32.generation_seconds_per_entry, 1e-12),
        "float32_label_agreement": float(
            np.mean(float32.action_labels == batched.action_labels)
        ),
    }


def _bench_serve(args: argparse.Namespace) -> Dict:
    """Compiled-serving benchmark: predict_batch vs per-row python + store cache hit.

    Runs a tiny extract-verify pipeline into a scratch store (timing the cold
    run), re-resolves the same configuration (timing the pure cache hit),
    then measures recursive per-row traversal against the compiled
    ``predict_batch`` on an identical input batch and checks the actions are
    exactly equal.  ``server_requests_per_second`` times the same rows
    through ``PolicyServer.serve_columnar`` in 512-row single-policy batches,
    after one untimed batch compiles the policy.
    """
    import time

    import numpy as np

    from repro.core.pipeline import VerifiedPolicyPipeline
    from repro.serving import PolicyServer

    config = _pipeline_config(args)
    with _scratch_store(args, 0) as store:
        start = time.perf_counter()
        VerifiedPolicyPipeline(config, store=store).run()
        extract_seconds = time.perf_counter() - start
        start = time.perf_counter()
        warm = VerifiedPolicyPipeline(config, store=store).run()
        store_hit_seconds = time.perf_counter() - start

        policy = warm.policy
        compiled = policy.compiled()
        rng = np.random.default_rng(args.seed)
        inputs = _synthetic_observations(rng, args.rows, policy.input_dim)

        start = time.perf_counter()
        recursive = policy.predict_action_indices(inputs)
        recursive_seconds = time.perf_counter() - start
        start = time.perf_counter()
        batched = compiled.predict_batch(inputs)
        compiled_seconds = time.perf_counter() - start

        # End-to-end front door: id lookup, width check, forest descent.
        policy_ids = np.full(args.rows, store.entries()[0].key.name)
        _, seconds = _serve_stream(
            PolicyServer(store=store), policy_ids, inputs, 512, warmup=True
        )

    return {
        "benchmark": "serve",
        "rows": args.rows,
        "tree_nodes": policy.node_count,
        "tree_leaves": policy.leaf_count,
        "tree_depth": policy.depth,
        "actions_identical": bool(np.array_equal(recursive, batched)),
        "recursive_rows_per_second": args.rows / max(recursive_seconds, 1e-12),
        "compiled_rows_per_second": args.rows / max(compiled_seconds, 1e-12),
        "speedup": recursive_seconds / max(compiled_seconds, 1e-12),
        "server_requests_per_second": args.rows / max(sum(seconds), 1e-12),
        "extract_seconds": extract_seconds,
        "store_hit_seconds": store_hit_seconds,
        "cache_hit": bool(warm.cache_hit),
        "cache_speedup": extract_seconds / max(store_hit_seconds, 1e-12),
    }


def _bench_serve_columnar(args: argparse.Namespace) -> Dict:
    """Columnar front door vs the recursive reference on a mixed-building stream.

    Extracts two tiny policies (different seeds) into a scratch store so
    every chunk genuinely interleaves buildings, then answers the same
    request stream twice: through ``serve_columnar``, timed after one
    untimed batch compiles both policies, and through the recursive
    ``TreePolicy.predict_action_indices`` walk, chunk by chunk and policy by
    policy.  The actions must match exactly.  The reference shares no code
    with the compiled forest, so a fast-but-wrong descent cannot pass.
    """
    import time

    import numpy as np

    from repro.serving import PolicyServer

    chunk = args.batch_size or 512
    with _scratch_store(args, 2) as store:
        policy_ids, assigned, observations = _round_robin_traffic(store, args.rows, args.seed)
        policies = {policy_id: store.find(policy_id).policy for policy_id in policy_ids}

        start = time.perf_counter()
        reference_actions = np.empty(args.rows, dtype=np.int64)
        for lo in range(0, args.rows, chunk):
            ids = assigned[lo : lo + chunk]
            for policy_id, policy in policies.items():
                rows = lo + np.flatnonzero(ids == policy_id)
                reference_actions[rows] = policy.predict_action_indices(observations[rows])
        reference_seconds = time.perf_counter() - start

        columnar_actions, seconds = _serve_stream(
            PolicyServer(store=store), assigned, observations, chunk, warmup=True
        )

    return {
        "benchmark": "serve-columnar",
        "rows": args.rows,
        "batch_size": chunk,
        "policies": len(policy_ids),
        "actions_identical": bool(np.array_equal(reference_actions, columnar_actions)),
        "reference_requests_per_second": args.rows / max(reference_seconds, 1e-12),
        "columnar_requests_per_second": args.rows / max(sum(seconds), 1e-12),
        "speedup": reference_seconds / max(sum(seconds), 1e-12),
    }


def _bench_serve_sharded(args: argparse.Namespace) -> Dict:
    """Sharded vs single-process columnar throughput on mixed-building traffic.

    Extracts four tiny policies (distinct seeds) into a scratch store so the
    round-robin request stream genuinely mixes buildings across shards, warms
    both servers (policy compilation out of the timed region), then pushes
    the identical stream through ``PolicyServer.serve_columnar`` and a
    ``ShardedPolicyServer`` fleet and checks the actions are exactly equal.
    The speedup is a multi-core scaling measurement: on a single-core box the
    sharded path can only add IPC overhead, so the result records
    ``cpu_count`` and CI gates its scaling floor on it.
    """
    import os

    import numpy as np

    from repro.serving import PolicyServer, ShardedPolicyServer

    chunk = args.batch_size or 8192
    with _scratch_store(args, 4) as store:
        policy_ids, assigned, observations = _round_robin_traffic(store, args.rows, args.seed)
        single_actions, single_seconds = _serve_stream(
            PolicyServer(store=store), assigned, observations, chunk, warmup=True
        )
        with ShardedPolicyServer(store=store, num_shards=args.shards) as fleet:
            sharded_actions, sharded_seconds = _serve_stream(
                fleet, assigned, observations, chunk, warmup=True
            )

    return {
        "benchmark": "serve-sharded",
        "rows": args.rows,
        "batch_size": chunk,
        "shards": args.shards,
        "cpu_count": os.cpu_count(),
        "policies": len(policy_ids),
        "actions_identical": bool(np.array_equal(single_actions, sharded_actions)),
        "single_process_requests_per_second": args.rows / max(sum(single_seconds), 1e-12),
        "sharded_requests_per_second": args.rows / max(sum(sharded_seconds), 1e-12),
        "speedup": sum(single_seconds) / max(sum(sharded_seconds), 1e-12),
    }


def _bench_serve_faults(args: argparse.Namespace) -> Dict:
    """Recovery under injected faults: kill one shard, hang another, mid-stream.

    Streams mixed-building batches through a supervised fleet and, partway
    through, injects a ``kill`` fault into one traffic-bearing shard and a
    ``hang`` fault into another (see :mod:`repro.serving.faults`).  The fleet
    must heal both without a single caller-visible error: the bench records
    the latency of the faulted batches (the recovery time — restart + replay
    + re-dispatch), the median healthy-batch latency for contrast, restart
    and retry counters, and the two floor facts CI gates on: zero lost
    requests and actions bit-identical to the single-process server.
    Recovery time scales with core count (the restarted worker re-opens its
    store under contention), so ``cpu_count`` is recorded and CI applies its
    latency floor only on multi-core runners.
    """
    import os

    import numpy as np

    from repro.serving import Fault, PolicyServer, ShardedPolicyServer, shard_for_policy

    if args.shards < 2:
        raise CLIError("--target serve-faults needs --shards >= 2")
    chunk = args.batch_size or 4096
    timeout = args.timeout if args.timeout is not None else 1.0
    with _scratch_store(args, 4) as store:
        policy_ids, assigned, observations = _round_robin_traffic(store, args.rows, args.seed)
        single_actions, _ = _serve_stream(PolicyServer(store=store), assigned, observations, chunk)

        # Fault only shards that actually carry traffic (policy routing may
        # leave some shards idle), or the injected fault would never fire.
        active = sorted({shard_for_policy(pid, args.shards) for pid in policy_ids})
        kill_shard = active[0]
        hang_shard = active[1 % len(active)]
        batches = len(range(0, args.rows, chunk))
        kill_batch = batches // 3
        hang_batch = (2 * batches) // 3

        with ShardedPolicyServer(
            store=store,
            num_shards=args.shards,
            timeout=timeout,
            retries=args.retries,
            degraded=args.degraded,
            heartbeat_interval=None,
        ) as fleet:
            sharded_actions, batch_seconds = _serve_stream(
                fleet,
                assigned,
                observations,
                chunk,
                warmup=True,
                faults=[
                    (kill_batch, Fault(kind="kill", shard=kill_shard)),
                    (hang_batch, Fault(kind="hang", shard=hang_shard, seconds=30.0)),
                ],
            )
            stats = fleet.stats()

    fleet_counters = stats["fleet"]
    return {
        "benchmark": "serve-faults",
        "rows": args.rows,
        "batch_size": chunk,
        "shards": args.shards,
        "cpu_count": os.cpu_count(),
        "policies": len(policy_ids),
        "timeout_seconds": timeout,
        "retries": args.retries,
        "degraded": args.degraded,
        "faults": {
            "kill": {"shard": kill_shard, "batch": kill_batch},
            "hang": {"shard": hang_shard, "batch": hang_batch},
        },
        "errors_raised": 0,  # reaching here means no serve call raised
        "requests_lost": fleet_counters["lost_requests"],
        "fleet_requests_total": fleet_counters["requests"],  # includes warmup
        "actions_identical": bool(np.array_equal(single_actions, sharded_actions)),
        "restarts": stats["supervisor"]["restarts"],
        "retries_used": fleet_counters["retries"],
        "fallback_rows": fleet_counters["fallback_rows"],
        "kill_recovery_seconds": batch_seconds[kill_batch],
        "hang_recovery_seconds": batch_seconds[hang_batch],
        "median_batch_seconds": float(np.median(batch_seconds)),
    }


def _synthetic_store_policies(store, count: int, seed: int) -> List[str]:
    """Fill ``store`` with ``count`` small random tree policies; returns names.

    Trees are built node-by-node (no CART fit — the bench measures the store,
    not extraction) with thresholds drawn from the Table-1 observation ranges
    so requests actually route through both branches.  All policies share the
    canonical feature list, matching a real fleet where every building speaks
    the same observation schema.
    """
    import numpy as np

    from repro.core.tree_policy import TreePolicy
    from repro.data import OBSERVATION_FEATURES
    from repro.dtree.cart import DecisionTreeClassifier
    from repro.dtree.node import TreeNode
    from repro.store import PolicyKey

    rng = np.random.default_rng(seed)
    n_features = len(_OBSERVATION_RANGES)
    action_pairs = [(15 + i, 22 + i) for i in range(8)]
    names: List[str] = []
    for index in range(count):
        next_id = iter(range(1 << 20))

        def grow(depth: int) -> TreeNode:
            if depth == 0 or rng.random() < 0.2:
                return TreeNode(
                    node_id=next(next_id),
                    prediction=int(rng.integers(len(action_pairs))),
                )
            feature = int(rng.integers(n_features))
            low, high = _OBSERVATION_RANGES[feature]
            node = TreeNode(
                node_id=next(next_id),
                feature_index=feature,
                threshold=float(rng.uniform(low, high)),
                prediction=0,
            )
            node.left = grow(depth - 1)
            node.right = grow(depth - 1)
            return node

        depth = int(rng.integers(3, 6))
        tree = DecisionTreeClassifier(max_depth=depth)
        tree.n_features = n_features
        tree.root = grow(depth)
        tree.classes_ = np.arange(len(action_pairs))
        policy = TreePolicy(
            tree, action_pairs=action_pairs, feature_names=list(OBSERVATION_FEATURES)
        )
        key = PolicyKey(
            city="fleet",
            season="summer",
            building="office",
            seed=index,
            config_hash=f"{index:012x}",
        )
        names.append(store.put_policy(key, policy).key.name)
    return names


def _process_memory_kb(pid) -> Tuple[Optional[int], Optional[str]]:
    """Resident memory of one process in KiB: (value, metric).

    Prefers proportional-set-size (``smaps_rollup`` — shared mmap pages are
    divided among their mappers, so summing workers never double-counts the
    arena), falls back to ``VmRSS``, and returns ``(None, None)`` off-Linux
    so callers can gate memory floors on metric availability.
    """
    try:
        with open(f"/proc/{pid}/smaps_rollup", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("Pss:"):
                    return int(line.split()[1]), "pss"
    except OSError:
        pass
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]), "rss"
    except OSError:
        pass
    return None, None


def _store_cold_memory_probe(
    store_root: str,
    warmup_ids,
    fleet_ids,
    observations,
    conn,
) -> None:
    """Child-process half of the store-cold memory measurement.

    Runs in a fresh process (same lifecycle as a shard worker, so its
    allocator has no free lists left over from the benchmark's earlier
    phases): build an arena-backed server, serve the warm-up batch, read the
    resident baseline, warm the full fleet, read again, report through
    ``conn``.
    """
    import gc
    import os

    import numpy as np

    from repro.serving import PolicyRequestBatch, PolicyServer
    from repro.store import PolicyStore

    server = PolicyServer(store=PolicyStore(store_root), arena=True)
    server.serve_columnar(
        PolicyRequestBatch(policy_ids=np.asarray(warmup_ids), observations=observations)
    )
    gc.collect()
    before, metric = _process_memory_kb(os.getpid())
    server.serve_columnar(
        PolicyRequestBatch(policy_ids=np.asarray(fleet_ids), observations=observations)
    )
    after, _ = _process_memory_kb(os.getpid())
    server.close()
    conn.send((before, after, metric))
    conn.close()


def _bench_store_cold(args: argparse.Namespace) -> Dict:
    """Cold-load cost of the packed arena vs the per-file JSON store.

    Synthesises ``--policies`` small tree policies into a scratch store,
    packs them into one arena, and measures what the paper's fleet-restart
    story actually costs: time from a cold process to the first full-fleet
    action batch (every policy answers once — the JSON path parses and
    compiles each artifact, the arena path mmaps one file and hands out
    zero-copy views), per-policy cold TTFA on fresh servers, steady-state
    warm throughput (the arena must not be slower once everything is hot),
    resident-memory growth of warming every policy in one fresh process vs
    ``--shards`` worker processes (the mmap pages are shared, so the fleet's
    footprint must not scale with the shard count; both sides baseline after
    a same-size warm-up batch so fixed transport/allocator costs cancel),
    and supervised kill-recovery (the respawned worker reopens the mapping:
    zero recompiles, zero lost requests).
    """
    import os
    import tempfile
    import time

    import numpy as np

    from repro.serving import PolicyRequestBatch, PolicyServer, ShardedPolicyServer
    from repro.store import PolicyStore

    if args.policies < 2:
        raise CLIError("--policies must be at least 2")
    if args.shards < 2:
        raise CLIError("--target store-cold needs --shards >= 2")
    sample = min(16, args.policies)
    with tempfile.TemporaryDirectory(prefix="repro-bench-arena-") as scratch:
        store = PolicyStore(scratch)
        start = time.perf_counter()
        policy_ids = _synthetic_store_policies(store, args.policies, args.seed)
        generate_seconds = time.perf_counter() - start

        start = time.perf_counter()
        arena_path = store.pack()
        pack_seconds = time.perf_counter() - start
        arena_bytes = arena_path.stat().st_size

        rng = np.random.default_rng(args.seed)
        dim = len(_OBSERVATION_RANGES)
        # The first fleet tick after a restart: every policy answers once.
        assigned = np.array(policy_ids)
        observations = _synthetic_observations(rng, args.policies, dim)
        fleet_batch = PolicyRequestBatch(policy_ids=assigned, observations=observations)

        def fleet_cold(arena_flag):
            """Cold process -> first full-fleet batch; returns the warm server too."""
            start = time.perf_counter()
            server = PolicyServer(store=store, arena=arena_flag)
            actions = server.serve_columnar(fleet_batch).action_indices
            return time.perf_counter() - start, actions, server

        json_ttfa, json_actions, json_server = fleet_cold(False)
        start = time.perf_counter()
        json_server.serve_columnar(fleet_batch)
        json_warm_seconds = time.perf_counter() - start
        json_server.close()

        arena_ttfa, arena_actions, arena_server = fleet_cold(True)
        start = time.perf_counter()
        arena_server.serve_columnar(fleet_batch)
        arena_warm_seconds = time.perf_counter() - start
        arena_compiles = arena_server.stats.compile_count
        arena_hits_single = arena_server.stats.arena_hits
        arena_server.close()

        # Per-policy cold TTFA: a fresh server answers one building's first
        # request (construction included — that is what "cold" costs).
        probe_ids = [policy_ids[i] for i in
                     np.linspace(0, args.policies - 1, sample).astype(int)]
        per_policy = {}
        for mode, arena_flag in (("json", False), ("arena", True)):
            seconds = []
            for policy_id in probe_ids:
                row = PolicyRequestBatch(
                    policy_ids=np.array([policy_id]), observations=observations[:1]
                )
                start = time.perf_counter()
                server = PolicyServer(store=store, arena=arena_flag)
                server.serve_columnar(row)
                seconds.append(time.perf_counter() - start)
                server.close()
            per_policy[mode] = float(np.median(seconds))

        # Resident growth of warming the whole fleet, at one fresh process vs
        # a supervised worker fleet mapping the same arena file.  Both sides
        # read their baseline in a fresh process (same lifecycle as a shard
        # worker) *after* a full-size warm-up batch routed over a handful of
        # covering policies: that parks construction, arena metadata, ring
        # residency and first-serve allocator growth — fixed costs that exist
        # for the JSON fleet too — in the baseline, so the deltas measure
        # what warming the remaining ~``--policies`` handles costs, which is
        # the store's (shared-pages) contribution.
        import multiprocessing

        from repro.serving import shard_for_policy

        cover: Dict[int, str] = {}
        for policy_id in policy_ids:
            cover.setdefault(shard_for_policy(policy_id, args.shards), policy_id)
            if len(cover) == args.shards:
                break

        def warmup_ids(assign) -> List[str]:
            return [assign(pid) for pid in policy_ids]

        memory_metric: Optional[str] = None
        memory_delta_1: Optional[int] = None
        mp = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
        )
        parent_end, child_end = mp.Pipe(duplex=False)
        probe = mp.Process(
            target=_store_cold_memory_probe,
            args=(
                scratch,
                warmup_ids(lambda pid: policy_ids[0]),
                list(policy_ids),
                observations,
                child_end,
            ),
        )
        probe.start()
        child_end.close()
        if parent_end.poll(300):
            before, after, memory_metric = parent_end.recv()
            if before is not None and after is not None:
                memory_delta_1 = after - before
        parent_end.close()
        probe.join()

        memory_delta_n: Optional[int] = None
        with ShardedPolicyServer(
            store=store, num_shards=args.shards, arena=True
        ) as fleet:
            # Same-size warm-up, one covering policy per shard: every worker
            # serves its full row share once before the baseline read.
            fleet.serve_columnar(
                PolicyRequestBatch(
                    policy_ids=np.array(
                        warmup_ids(
                            lambda pid: cover.get(
                                shard_for_policy(pid, args.shards), pid
                            )
                        )
                    ),
                    observations=observations,
                )
            )
            pids = [
                fleet.supervisor.state(index).process.pid
                for index in range(args.shards)
            ]
            baseline = [_process_memory_kb(pid)[0] for pid in pids]
            fleet.serve_columnar(fleet_batch)
            warmed = [_process_memory_kb(pid)[0] for pid in pids]
            if all(b is not None for b in baseline) and all(w is not None for w in warmed):
                memory_delta_n = sum(w - b for b, w in zip(baseline, warmed))
            sharded_actions = fleet.serve_columnar(fleet_batch).action_indices

            # Supervised recovery: the respawned worker reopens the mapping —
            # no JSON parse, no recompile, no lost requests.
            fleet.supervisor.state(0).process.kill()
            recovered = fleet.serve_columnar(fleet_batch).action_indices
            stats = fleet.stats()

    growth = (
        memory_delta_n / memory_delta_1
        if memory_delta_1 and memory_delta_n is not None
        else None
    )
    return {
        "benchmark": "store-cold",
        "policies": args.policies,
        "shards": args.shards,
        "cpu_count": os.cpu_count(),
        "arena_bytes": arena_bytes,
        "generate_seconds": generate_seconds,
        "pack_seconds": pack_seconds,
        "cold_ttfa_json_seconds": json_ttfa,
        "cold_ttfa_arena_seconds": arena_ttfa,
        "cold_ttfa_speedup": json_ttfa / max(arena_ttfa, 1e-12),
        "per_policy_cold_json_seconds": per_policy["json"],
        "per_policy_cold_arena_seconds": per_policy["arena"],
        "warm_fleet_json_seconds": json_warm_seconds,
        "warm_fleet_arena_seconds": arena_warm_seconds,
        "actions_identical": bool(
            np.array_equal(json_actions, arena_actions)
            and np.array_equal(json_actions, sharded_actions)
            and np.array_equal(json_actions, recovered)
        ),
        "arena_compile_count": arena_compiles,
        "arena_hits": arena_hits_single,
        "memory_metric": memory_metric,
        "memory_delta_1_shard_kb": memory_delta_1,
        "memory_delta_n_shards_kb": memory_delta_n,
        "memory_growth_ratio": growth,
        "restart": {
            "compile_count": stats["compile_count"],
            "arena_hits": stats["arena_hits"],
            "lost_requests": stats["fleet"]["lost_requests"],
            "restarts": stats["supervisor"]["restarts"],
        },
    }


def _bench_fleet(args: argparse.Namespace) -> Dict:
    """Closed-loop fleet benchmark: tick throughput plus the rollout floors.

    Runs the full fleet loop twice against a scratch store, auditing drift
    against the incumbent artifact (the deterministic reference-tree oracle;
    the online-MPC teacher is the ``repro fleet --drift-teacher mpc`` path):

    * **healthy phase** — a bit-identical clone of the incumbent is canaried;
      on multi-shard runs its shard is killed mid-canary.  The candidate must
      *promote* with zero lost ticks — this phase also provides the
      throughput/latency numbers (tick p50/p99, ticks/s).
    * **corrupted phase** — a clone with every leaf forced to its most
      aggressive action is canaried.  The drift detector must alarm and
      *roll back* before the canary window closes; the alarm latency (ticks
      from canary start to first alarm) is recorded.

    CI floors gate on: zero lost ticks in both phases, ``promoted`` in the
    healthy phase and ``rolled_back`` + ``drift_alarm_fired`` in the
    corrupted one.
    """
    import os

    from repro.core.tree_policy import TreePolicy
    from repro.fleet import FleetGroup, TreePolicyTeacher

    min_canary_ticks = max(4, args.ticks // 4)
    kill_tick = args.ticks // 8 if args.shards >= 2 else None

    with _scratch_store(args, 1) as store:
        incumbent = store.entries()[0].key.name
        incumbent_policy = store.find(incumbent).policy
        # The drift oracle is the verified incumbent artifact itself: at
        # CI/bench scale the tiny MPC teacher's labels are noise-dominated on
        # near-tie (unoccupied) states, so its baseline-relative excess cannot
        # discriminate; the reference tree makes the corrupted-candidate alarm
        # a deterministic floor.  `repro fleet --drift-teacher mpc` runs the
        # faithful online-MPC audit.
        teacher = TreePolicyTeacher(incumbent_policy)

        def run_phase(candidate, inject_kill) -> Dict:
            group = _resolve(
                FleetGroup.from_scenario,
                f"{args.climate}/{args.season}",
                policy_id=incumbent,
                num_buildings=args.buildings,
                base_seed=args.seed,
                days=1,
            )
            loop, stats = _run_fleet(
                store,
                [group],
                args,
                timeout=args.timeout if args.timeout is not None else 10.0,
                incumbent=incumbent,
                candidate=candidate,
                canary=0.25,
                min_canary_ticks=min_canary_ticks,
                window=16,
                teacher=teacher,
                drift_sample=24,
                drift_threshold=0.3,
                # The alarm needs headroom to fire *inside* the canary window:
                # min_ticks must undercut min_canary_ticks or the shadow gate
                # always wins the race.
                drift_min_ticks=max(2, min(8, min_canary_ticks - 1)),
                inject_kill=inject_kill,
            )
            report = loop.report()
            first_alarm = loop.drift.first_alarm_tick(candidate[0])
            report["drift_alarm_fired"] = first_alarm is not None
            report["drift_alarm_latency_ticks"] = (
                first_alarm + 1 if first_alarm is not None else None
            )
            report["restarts"] = stats.get("supervisor", {}).get("restarts", 0)
            return report

        healthy = run_phase(
            ("candidate-healthy", TreePolicy.from_dict(incumbent_policy.to_dict())),
            kill_tick,
        )
        corrupted = run_phase(
            ("candidate-corrupted", _corrupted_clone(incumbent_policy)), None
        )

    tick_latency = healthy["tick_latency_seconds"]
    serve_latency = healthy["serve_latency_seconds"]
    return {
        "benchmark": "fleet",
        "buildings": args.buildings,
        "ticks": args.ticks,
        "shards": args.shards,
        "cpu_count": os.cpu_count(),
        "canary_fraction": 0.25,
        "min_canary_ticks": min_canary_ticks,
        "kill_tick": kill_tick,
        "ticks_per_second": healthy["ticks_per_second"],
        "building_ticks_per_second": healthy["building_ticks_per_second"],
        "tick_latency_p50_ms": tick_latency["p50"] * 1e3,
        "tick_latency_p99_ms": tick_latency["p99"] * 1e3,
        "serve_latency_p50_ms": serve_latency["p50"] * 1e3,
        "serve_latency_p99_ms": serve_latency["p99"] * 1e3,
        "promoted": healthy["rollout"]["state"] == "promoted",
        "rolled_back": corrupted["rollout"]["state"] == "rolled_back",
        "drift_alarm_fired": corrupted["drift_alarm_fired"],
        "drift_alarm_latency_ticks": corrupted["drift_alarm_latency_ticks"],
        "lost_ticks": healthy["telemetry"]["lost_ticks"]
        + corrupted["telemetry"]["lost_ticks"],
        "fallback_ticks": healthy["telemetry"]["fallback_ticks"]
        + corrupted["telemetry"]["fallback_ticks"],
        "restarts": healthy["restarts"] + corrupted["restarts"],
    }


#: Agents rowed in the robustness table by default: the MPC teacher, the
#: distilled tree and every classical baseline.
_ROBUSTNESS_AGENTS = ("mbrl", "dt", "rule_based", "hysteresis", "pid", "ema")

#: Fault classes columned in the robustness table by default (a subset of
#: :data:`repro.env.disturbances.DISTURBANCES` that keeps the quick bench
#: quick; ``--faults`` overrides).
_ROBUSTNESS_FAULTS = (
    "clean",
    "sensor_noise",
    "sensor_dropout",
    "stuck_damper",
    "weak_hvac",
    "short_cycle",
    "occupancy_surprise",
    "demand_response",
    "heat_wave",
)


def _bench_robustness(args: argparse.Namespace) -> Dict:
    """Comfort-violation/energy table of every agent under each fault class.

    Runs the full agent × disturbance grid on one scenario with per-episode
    seeds from the shared seed ladder, so the table is deterministic for a
    given (scenario, seed, days, episodes) tuple — the committed
    ``BENCH_robustness.json`` and the golden regression test both rely on
    that.  The model-based agents run deliberately tiny configurations (the
    point is the *relative* degradation under faults, not absolute teacher
    quality).
    """
    from repro.agents.registry import canonical_name
    from repro.env.disturbances import get_disturbance

    agents = [
        _resolve(canonical_name, name.strip())
        for name in (args.robust_agents.split(",") if args.robust_agents else _ROBUSTNESS_AGENTS)
        if name.strip()
    ]
    faults = [
        name.strip()
        for name in (args.faults.split(",") if args.faults else _ROBUSTNESS_FAULTS)
        if name.strip()
    ]
    for fault in faults:
        _resolve(get_disturbance, fault)  # validates early, before any run

    # Tiny model-based configurations: fast enough for CI's quick bench while
    # still exercising the full plan/act loop under every fault.
    agent_configs: Dict[str, Dict] = {
        "mbrl": {
            "hidden_sizes": (16, 16),
            "training_epochs": 4,
            "training_days": 1,
            "num_samples": 64,
            "horizon": 5,
        },
        "dt": {"pipeline": {}},
    }

    rows: List[Dict] = []
    for fault in faults:
        runner = _experiment_runner(args, "office", fault)
        for agent in agents:
            result = runner.run(agent, agent_config=agent_configs.get(agent, {}))
            rows.append(
                {
                    "agent": agent,
                    "fault": fault,
                    "mean_total_reward": result.mean_total_reward,
                    "mean_energy_kwh": result.mean_energy_kwh,
                    "mean_comfort_violation_rate": result.mean_comfort_violation_rate,
                }
            )

    by_cell = {(row["agent"], row["fault"]): row for row in rows}
    gaps = {
        fault: by_cell[("dt", fault)]["mean_comfort_violation_rate"]
        - by_cell[("mbrl", fault)]["mean_comfort_violation_rate"]
        for fault in faults
        if ("dt", fault) in by_cell and ("mbrl", fault) in by_cell
    }
    return {
        "benchmark": "robustness",
        "scenario": "/".join((args.climate, args.season, "office")),
        "days": args.days,
        "episodes": args.episodes,
        "seed": args.seed,
        "backend": args.backend,
        "agents": agents,
        "faults": faults,
        "rows": rows,
        "dt_vs_teacher_comfort_gap": gaps,
    }


_BENCH_TARGETS = {
    "rollout": _bench_rollout,
    "distill": _bench_distill,
    "serve": _bench_serve,
    "serve-columnar": _bench_serve_columnar,
    "serve-sharded": _bench_serve_sharded,
    "serve-faults": _bench_serve_faults,
    "store-cold": _bench_store_cold,
    "fleet": _bench_fleet,
    "robustness": _bench_robustness,
}


def cmd_lint(args: argparse.Namespace) -> int:
    """``repro lint`` — run reprolint with the shared argument schema."""
    return run_lint_command(args)


def cmd_bench(args: argparse.Namespace) -> int:
    payload = to_jsonable(_BENCH_TARGETS[args.target](args))
    print(json.dumps(payload, indent=2))
    _write_json(payload, args.output)
    return 0


# -------------------------------------------------------------------- parser
def _add_pipeline_arguments(
    parser: argparse.ArgumentParser, *flags: str, climate="pittsburgh", season="winter"
) -> None:
    """Add the named ones of ``--climate``/``--season``/``--seed``/``--decision-data``."""
    if "climate" in flags:
        parser.add_argument("--climate", default=climate, help="city name or climate alias")
    if "season" in flags:
        parser.add_argument("--season", default=season, choices=["winter", "summer"])
    if "seed" in flags:
        parser.add_argument("--seed", type=int, default=0)
    if "decision-data" in flags:
        parser.add_argument(
            "--decision-data",
            type=int,
            default=None,
            help="decision-dataset size of an extraction (default: the preset's)",
        )


def _add_server_arguments(
    parser: argparse.ArgumentParser, shards: int, timeout: Optional[float]
) -> None:
    """Add the sharded server's ``--shards``/``--timeout``/``--retries``/``--degraded``."""
    parser.add_argument(
        "--shards",
        type=int,
        default=shards,
        help=(
            "worker processes for the sharded server (1 serves in process; "
            ">1 spawns workers over the shared-memory transport)"
        ),
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=timeout,
        help="seconds to wait on a shard per attempt before restarting it"
        + (" (default: 1.0 for serve-faults, 10.0 for fleet)" if timeout is None else ""),
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=2,
        help="re-dispatch attempts for a failed shard slice (after restart)",
    )
    parser.add_argument(
        "--degraded",
        default="fail",
        choices=["fail", "fallback"],
        help=(
            "when the retry budget is exhausted: 'fail' raises, 'fallback' "
            "serves the slice with a parent-side in-process server"
        ),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Verified decision-tree HVAC policies: unified experiment CLI.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="evaluate a registered agent on a scenario")
    run.add_argument("--agent", default="rule_based", help="registered agent name or alias")
    _add_pipeline_arguments(run, "climate", "season", "seed")
    run.add_argument("--building", default="office", help="building variant")
    run.add_argument(
        "--disturbance",
        default=None,
        help="fault profile applied to every episode (see `repro scenarios --disturbances`)",
    )
    run.add_argument("--days", type=int, default=7, help="episode length in days")
    run.add_argument("--steps", type=int, default=None, help="cap on steps per episode")
    run.add_argument("--episodes", type=int, default=1)
    run.add_argument(
        "--backend",
        default="serial",
        choices=["serial", "batched", "process"],
        help="episode execution backend (identical results, different speed)",
    )
    run.add_argument(
        "--batch-size",
        type=int,
        default=None,
        help="episodes stepped together per chunk (batched backend)",
    )
    run.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes (process backend; default: CPU count)",
    )
    run.add_argument(
        "--agent-arg",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="extra agent constructor option (repeatable; values parsed as JSON)",
    )
    run.add_argument("--output", default=None, help="write the full result JSON here")
    run.set_defaults(func=cmd_run)

    extract = sub.add_parser("extract", help="run the extract-verify-deploy pipeline")
    _add_pipeline_arguments(extract, "climate", "season", "seed", "decision-data")
    extract.add_argument("--preset", default="paper", choices=["paper", "tiny"])
    extract.add_argument(
        "--dtype",
        default=None,
        choices=["float64", "float32"],
        help="dynamics-model inference dtype (float32: the BLAS fast path)",
    )
    extract.add_argument("--print-tree", action="store_true")
    extract.add_argument("--max-print-depth", type=int, default=4)
    extract.add_argument("--save", default=None, help="write the verified policy JSON here")
    extract.add_argument(
        "--store",
        nargs="?",
        const=True,
        default=None,
        metavar="PATH",
        help="persist to (and resolve from) the policy store; optional custom root",
    )
    extract.add_argument(
        "--refresh",
        action="store_true",
        help="force re-extraction even when the store already has this configuration",
    )
    extract.set_defaults(func=cmd_extract)

    agents = sub.add_parser("agents", help="list registered agents")
    agents.set_defaults(func=cmd_agents)

    scenarios = sub.add_parser("scenarios", help="list the scenario grid")
    _add_pipeline_arguments(scenarios, "climate", "season", climate=None, season=None)
    scenarios.add_argument(
        "--disturbances",
        action="store_true",
        help="list the named disturbance profiles instead of the scenario grid",
    )
    scenarios.set_defaults(func=cmd_scenarios)

    climates = sub.add_parser("climates", help="list climate profiles and aliases")
    climates.set_defaults(func=cmd_climates)

    policies = sub.add_parser("policies", help="list/prune/verify the policy store")
    policies.add_argument("--store", default=None, metavar="PATH", help="store root (default: $REPRO_POLICY_STORE or ~/.cache/repro/policy-store)")
    _add_pipeline_arguments(policies, "climate", "season", climate=None, season=None)
    policies.add_argument(
        "--prune-keep",
        type=int,
        default=None,
        metavar="N",
        help="delete all but the N newest matching artifacts",
    )
    policies.add_argument("--verify", action="store_true", help="integrity-check every artifact")
    policies.add_argument(
        "--pack",
        nargs="?",
        const=True,
        default=None,
        metavar="PATH",
        help=(
            "pack the matching policies into one mmap'able arena "
            "(default target: <store>/policies.arena)"
        ),
    )
    policies.set_defaults(func=cmd_policies)

    serve = sub.add_parser(
        "serve", help="drive the compiled policy server with a synthetic request stream"
    )
    serve.add_argument("--store", default=None, metavar="PATH", help="policy store root")
    serve.add_argument("--requests", type=int, default=10000, help="total requests to serve")
    serve.add_argument("--batch-size", type=int, default=256, help="requests per server batch")
    _add_server_arguments(serve, shards=1, timeout=60.0)
    _add_pipeline_arguments(serve, "climate", "season", "seed", "decision-data")
    serve.add_argument(
        "--arena",
        nargs="?",
        const=True,
        default=None,
        metavar="PATH",
        help=(
            "serve from the packed mmap arena: bare flag requires "
            "<store>/policies.arena, PATH opens that file (default: "
            "auto-detect when present)"
        ),
    )
    serve.add_argument(
        "--stats-json",
        default=None,
        metavar="PATH",
        help="write the raw server counters (fleet/supervisor) as JSON here",
    )
    serve.add_argument("--output", default=None, help="write the throughput summary JSON here")
    serve.set_defaults(func=cmd_serve)

    fleet = sub.add_parser(
        "fleet",
        help="run the closed-loop simulated fleet (canary/shadow/drift rollouts)",
        description="Drive a fleet of simulated buildings through the serving "
        "stack tick by tick: observations out, actions back, telemetry "
        "accumulated — with optional canary rollout of a candidate policy "
        "gated on shadow evaluation and teacher-drift detection.",
    )
    fleet.add_argument("--buildings", type=int, default=256, help="total simulated buildings")
    fleet.add_argument("--ticks", type=int, default=48, help="control ticks to run")
    fleet.add_argument(
        "--scenarios",
        default="pittsburgh/winter",
        help="comma-separated scenario names (city/season); buildings are split across them",
    )
    fleet.add_argument("--days", type=int, default=None, help="episode length per building")
    fleet.add_argument(
        "--distinct",
        type=int,
        default=16,
        help="distinct disturbance traces per group (tiled across the buildings)",
    )
    _add_server_arguments(fleet, shards=1, timeout=10.0)
    fleet.add_argument(
        "--canary",
        type=float,
        default=0.0,
        metavar="FRACTION",
        help="canary a candidate policy on this fraction of buildings (0 disables)",
    )
    fleet.add_argument(
        "--corrupt-candidate",
        action="store_true",
        help="canary a deliberately broken candidate (exercises drift alarm + rollback)",
    )
    fleet.add_argument(
        "--min-canary-ticks",
        type=int,
        default=16,
        help="healthy canary ticks required before promotion",
    )
    fleet.add_argument(
        "--drift-teacher",
        default="tree",
        choices=["tree", "mpc"],
        help="drift oracle: the incumbent tree (cheap) or the MPC optimizer (faithful)",
    )
    fleet.add_argument(
        "--drift-sample", type=int, default=32, help="fleet rows audited per tick"
    )
    fleet.add_argument(
        "--drift-threshold",
        type=float,
        default=0.25,
        help="excess teacher-disagreement (over the incumbent) that trips the alarm",
    )
    fleet.add_argument(
        "--window", type=int, default=16, help="shadow/drift sliding window in ticks"
    )
    fleet.add_argument(
        "--inject-kill",
        type=int,
        default=None,
        metavar="TICK",
        help="kill the candidate's shard at this tick (needs --shards >= 2)",
    )
    fleet.add_argument(
        "--no-fallback",
        action="store_true",
        help="disable the hysteresis degraded mode (failed ticks become lost ticks)",
    )
    fleet.add_argument("--store", default=None, metavar="PATH", help="policy store root")
    _add_pipeline_arguments(fleet, "seed", "decision-data")
    fleet.add_argument(
        "--stats-json",
        default=None,
        metavar="PATH",
        help="write the raw server counters (fleet/supervisor) as JSON here",
    )
    fleet.add_argument("--output", default=None, help="write the full fleet report JSON here")
    fleet.set_defaults(func=cmd_fleet)

    bench = sub.add_parser(
        "bench",
        help="time rollouts, MC distillation or policy serving, write a benchmark JSON",
    )
    bench.add_argument(
        "--target",
        default="rollout",
        choices=[
            "rollout",
            "distill",
            "serve",
            "serve-columnar",
            "serve-sharded",
            "serve-faults",
            "store-cold",
            "fleet",
            "robustness",
        ],
        help=(
            "what to benchmark: rollouts, decision-dataset distillation, policy "
            "serving, the columnar serving front door vs the recursive "
            "reference, the multi-process sharded server vs single-process "
            "columnar, fleet recovery under injected kill/hang faults, the packed "
            "arena vs per-file JSON cold load, the "
            "closed-loop fleet (throughput + canary/rollback floors), or the "
            "agent × fault robustness table (comfort/energy per disturbance)"
        ),
    )
    bench.add_argument("--agent", default="rule_based")
    _add_pipeline_arguments(bench, "climate", "season", "seed", "decision-data")
    bench.add_argument("--days", type=int, default=1)
    bench.add_argument("--episodes", type=int, default=3)
    bench.add_argument(
        "--backend", default="serial", choices=["serial", "batched", "process"]
    )
    bench.add_argument("--batch-size", type=int, default=None)
    bench.add_argument("--workers", type=int, default=None)
    bench.add_argument(
        "--entries", type=int, default=96, help="decision-dataset entries (distill target)"
    )
    bench.add_argument(
        "--samples", type=int, default=64, help="RS candidate sequences (distill target)"
    )
    bench.add_argument(
        "--mc-runs", type=int, default=3, help="Monte-Carlo runs per entry (distill target)"
    )
    bench.add_argument(
        "--horizon", type=int, default=5, help="planning horizon (distill target)"
    )
    bench.add_argument(
        "--rows", type=int, default=20000, help="request batch rows (serve target)"
    )
    bench.add_argument(
        "--policies",
        type=int,
        default=10000,
        help="synthetic stored policies (store-cold target)",
    )
    bench.add_argument(
        "--buildings", type=int, default=512, help="simulated buildings (fleet target)"
    )
    bench.add_argument(
        "--ticks", type=int, default=48, help="control ticks per phase (fleet target)"
    )
    _add_server_arguments(bench, shards=4, timeout=None)
    bench.add_argument(
        "--faults",
        default=None,
        metavar="A,B,...",
        help="comma-separated fault profiles (robustness target; default: the standard set)",
    )
    bench.add_argument(
        "--robust-agents",
        default=None,
        metavar="A,B,...",
        help="comma-separated agent names (robustness target; default: teacher, dt and classical baselines)",
    )
    bench.add_argument("--output", default=None)
    bench.set_defaults(func=cmd_bench)

    lint = sub.add_parser(
        "lint",
        help="run reprolint, the repo's AST-based invariant linter",
        description="Static analysis of the repro tree against its own "
        "invariants: dtype policy, zero-copy transport, schema contracts, "
        "resource ownership and RNG discipline.  Exits non-zero on any "
        "finding not acknowledged by the committed baseline.",
    )
    add_lint_arguments(lint)
    lint.set_defaults(func=cmd_lint)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_flags(args)
        return args.func(args)
    except CLIError as exc:
        # User-input problems (bad agent/climate/scenario names, invalid
        # values) carry a helpful listing; show it without the traceback.
        # Genuine internal failures still propagate with a full traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
