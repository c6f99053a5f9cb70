"""Tests for reprolint: per-rule true/false positives, suppressions,
baseline diffing, the CLI entry points, and a smoke run on the real tree."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis import Baseline, Finding, make_rules, run_lint
from repro.analysis.reporters import render_human, render_json
from repro.analysis.suppressions import is_suppressed, parse_suppressions

REPO_ROOT = Path(__file__).resolve().parent.parent
PACKAGE_ROOT = REPO_ROOT / "src" / "repro"


def write_tree(root: Path, files: dict) -> Path:
    """Materialise ``{relpath: source}`` under ``root`` and return it."""
    for relpath, source in files.items():
        path = root / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    return root


def lint(root: Path, only=(), baseline=None):
    """Run the engine over a fixture tree, restricted to ``only`` rules."""
    return run_lint(root, baseline=baseline, only=only)


def rules_of(result):
    """The rule ids the run flagged, as a sorted list."""
    return sorted(f.rule for f in result.findings)


def child_env() -> dict:
    """A minimal environment for ``python -m repro.analysis`` subprocesses.

    ``PYTHONDONTWRITEBYTECODE`` passes through when set, so a test run that
    asked for no bytecode leaves no ``__pycache__`` under ``src/``.
    """
    env = {"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"}
    if "PYTHONDONTWRITEBYTECODE" in os.environ:
        env["PYTHONDONTWRITEBYTECODE"] = os.environ["PYTHONDONTWRITEBYTECODE"]
    return env


# ----------------------------------------------------------------- REP001
class TestDtypePolicy:
    def test_flags_dtypeless_constructors_in_scope(self, tmp_path):
        write_tree(tmp_path, {
            "data/bad.py": """
                import numpy as np

                def alloc(n):
                    a = np.zeros(n)
                    b = np.full(n, 1.0)
                    c = np.asarray([1.0, 2.0])
                    return a, b, c
            """,
        })
        result = lint(tmp_path, only=("REP001",))
        assert rules_of(result) == ["REP001", "REP001", "REP001"]
        assert all(f.severity == "error" for f in result.findings)

    def test_accepts_explicit_dtype_keyword_and_positional(self, tmp_path):
        write_tree(tmp_path, {
            "data/good.py": """
                import numpy as np

                def alloc(n):
                    a = np.zeros(n, dtype=np.float32)
                    b = np.full(n, 1.0, np.float64)
                    c = np.asarray([1, 2], dtype=np.int64)
                    return a, b, c
            """,
        })
        assert lint(tmp_path, only=("REP001",)).findings == []

    def test_out_of_scope_files_are_not_flagged(self, tmp_path):
        write_tree(tmp_path, {
            "utils/helper.py": """
                import numpy as np

                def alloc(n):
                    return np.zeros(n)
            """,
        })
        assert lint(tmp_path, only=("REP001",)).findings == []

    def test_non_numpy_zeros_is_not_flagged(self, tmp_path):
        write_tree(tmp_path, {
            "data/other.py": """
                class Grid:
                    def zeros(self, n):
                        return [0] * n

                def use(grid, n):
                    return grid.zeros(n)
            """,
        })
        assert lint(tmp_path, only=("REP001",)).findings == []


# ----------------------------------------------------------------- REP002
class TestZeroCopy:
    def test_flags_pickle_deepcopy_and_tolist(self, tmp_path):
        write_tree(tmp_path, {
            "data/shm.py": """
                import pickle
                from copy import deepcopy

                def leak(batch):
                    blob = pickle.dumps(batch)
                    clone = deepcopy(batch)
                    rows = batch.values.tolist()
                    return blob, clone, rows
            """,
        })
        result = lint(tmp_path, only=("REP002",))
        # pickle import + pickle.dumps + deepcopy + tolist
        assert len(result.findings) == 4

    def test_flags_list_of_dict_materialisation(self, tmp_path):
        write_tree(tmp_path, {
            "data/adapter.py": """
                def rows(batch):
                    return [{"v": v} for v in batch.values]
            """,
        })
        assert rules_of(lint(tmp_path, only=("REP002",))) == ["REP002"]

    def test_send_path_requires_guard(self, tmp_path):
        write_tree(tmp_path, {
            "serving/sharded.py": """
                def dispatch(ring, batch):
                    header = batch.to_shm(ring)
                    return header
            """,
        })
        result = lint(tmp_path, only=("REP002",))
        assert rules_of(result) == ["REP002"]
        assert "assert_zero_copy" in result.findings[0].message

    def test_guarded_send_path_passes(self, tmp_path):
        write_tree(tmp_path, {
            "serving/sharded.py": """
                def dispatch(ring, batch):
                    header = batch.to_shm(ring)
                    header.assert_zero_copy()
                    return header
            """,
        })
        assert lint(tmp_path, only=("REP002",)).findings == []

    def test_pure_delegation_is_exempt(self, tmp_path):
        write_tree(tmp_path, {
            "data/schema.py": """
                def to_shm(self, ring):
                    \"\"\"Delegates; the guard runs inside write_batch.\"\"\"
                    return ring.write_batch(self)
            """,
        })
        assert lint(tmp_path, only=("REP002",)).findings == []

    def test_out_of_scope_pickle_is_fine(self, tmp_path):
        write_tree(tmp_path, {
            "store/io.py": """
                import pickle

                def save(obj, path):
                    with open(path, "wb") as fh:
                        pickle.dump(obj, fh)
            """,
        })
        assert lint(tmp_path, only=("REP002",)).findings == []


# ----------------------------------------------------------------- REP003
class TestSchemaContract:
    FIXTURE = """
        import numpy as np


        class ColumnarBatch:
            def take(self, idx):
                return self

        class ActionBatch(ColumnarBatch):
            indices: np.ndarray

            COLUMNS = (
                ColumnSpec("indices", kind="int"),
            )

            def head(self):
                return self.indices[0]
    """

    def test_undeclared_attribute_read_is_flagged(self, tmp_path):
        write_tree(tmp_path, {
            "data/schema.py": self.FIXTURE,
            "serving/server.py": """
                from data.schema import ActionBatch

                def answer(batch: ActionBatch):
                    return batch.indicies.sum()
            """,
        })
        result = lint(tmp_path, only=("REP003",))
        assert rules_of(result) == ["REP003"]
        assert "indicies" in result.findings[0].message

    def test_declared_columns_methods_and_inherited_api_pass(self, tmp_path):
        write_tree(tmp_path, {
            "data/schema.py": self.FIXTURE,
            "serving/server.py": """
                from data.schema import ActionBatch

                def answer(batch: ActionBatch):
                    sub = batch.take([0])
                    return batch.indices.sum() + sub.head() + len(batch.COLUMNS)
            """,
        })
        assert lint(tmp_path, only=("REP003",)).findings == []

    def test_spec_without_matching_field_is_flagged(self, tmp_path):
        write_tree(tmp_path, {
            "data/schema.py": """
                import numpy as np

                class GhostBatch:
                    COLUMNS = (
                        ColumnSpec("phantom", kind="float"),
                    )
            """,
        })
        result = lint(tmp_path, only=("REP003",))
        assert rules_of(result) == ["REP003"]
        assert "phantom" in result.findings[0].message

    def test_producer_dtype_must_match_declared_kind(self, tmp_path):
        write_tree(tmp_path, {
            "data/schema.py": self.FIXTURE,
            "serving/make.py": """
                import numpy as np
                from data.schema import ActionBatch

                def build(n):
                    return ActionBatch(indices=np.zeros(n, dtype=np.float64))
            """,
        })
        result = lint(tmp_path, only=("REP003",))
        assert rules_of(result) == ["REP003"]
        assert "float64" in result.findings[0].message

    def test_matching_producer_dtype_passes(self, tmp_path):
        write_tree(tmp_path, {
            "data/schema.py": self.FIXTURE,
            "serving/make.py": """
                import numpy as np
                from data.schema import ActionBatch

                def build(n):
                    return ActionBatch(indices=np.zeros(n, dtype=np.int64))
            """,
        })
        assert lint(tmp_path, only=("REP003",)).findings == []


# ----------------------------------------------------------------- REP004
class TestResourceOwnership:
    def test_unclosed_local_resource_is_flagged(self, tmp_path):
        write_tree(tmp_path, {
            "transport.py": """
                from multiprocessing import shared_memory

                def leak(size):
                    shm = shared_memory.SharedMemory(create=True, size=size)
                    shm.buf[0] = 1
            """,
        })
        result = lint(tmp_path, only=("REP004",))
        assert rules_of(result) == ["REP004"]

    def test_closed_resource_and_escape_via_return_pass(self, tmp_path):
        write_tree(tmp_path, {
            "transport.py": """
                from multiprocessing import shared_memory, Pipe, Process

                def tidy(size):
                    shm = shared_memory.SharedMemory(create=True, size=size)
                    try:
                        shm.buf[0] = 1
                    finally:
                        shm.close()
                        shm.unlink()

                def factory(size):
                    shm = shared_memory.SharedMemory(create=True, size=size)
                    return Wrapper(shm, owner=True)

                def managed(path):
                    with Process(target=print) as proc:
                        proc.join()
            """,
        })
        assert lint(tmp_path, only=("REP004",)).findings == []

    def test_self_storage_in_disposing_class_passes(self, tmp_path):
        write_tree(tmp_path, {
            "transport.py": """
                from multiprocessing import Pipe, Process

                class Server:
                    def start(self):
                        ours, theirs = Pipe()
                        self._conns.append(ours)
                        theirs.close()
                        proc = Process(target=print)
                        self._workers.append(proc)

                    def close(self):
                        for conn in self._conns:
                            conn.close()
                        for proc in self._workers:
                            proc.join()
            """,
        })
        assert lint(tmp_path, only=("REP004",)).findings == []

    def test_self_storage_without_disposal_method_is_flagged(self, tmp_path):
        write_tree(tmp_path, {
            "transport.py": """
                from multiprocessing import Process

                class Fire:
                    def start(self):
                        proc = Process(target=print)
                        self._workers.append(proc)
            """,
        })
        assert rules_of(lint(tmp_path, only=("REP004",))) == ["REP004"]


# ----------------------------------------------------------------- REP005
class TestRngDiscipline:
    def test_global_state_calls_are_flagged(self, tmp_path):
        write_tree(tmp_path, {
            "agents/bad.py": """
                import numpy as np

                def sample(n):
                    np.random.seed(0)
                    return np.random.uniform(size=n)
            """,
        })
        result = lint(tmp_path, only=("REP005",))
        assert rules_of(result) == ["REP005", "REP005"]

    def test_generator_construction_and_method_calls_pass(self, tmp_path):
        write_tree(tmp_path, {
            "agents/good.py": """
                import numpy as np

                def sample(n, seed):
                    rng = np.random.default_rng(seed)
                    seq = np.random.SeedSequence(seed)
                    return rng.uniform(size=n), seq
            """,
        })
        assert lint(tmp_path, only=("REP005",)).findings == []

    def test_utils_rng_is_exempt(self, tmp_path):
        write_tree(tmp_path, {
            "utils/rng.py": """
                import numpy as np

                def legacy_seed(seed):
                    np.random.seed(seed)
            """,
        })
        assert lint(tmp_path, only=("REP005",)).findings == []


# ----------------------------------------------------------------- REP006
class TestTimeoutDiscipline:
    def test_flags_unbounded_join_wait_and_recv(self, tmp_path):
        write_tree(tmp_path, {
            "serving/bad.py": """
                from multiprocessing.connection import wait as connection_wait

                def reap(process):
                    process.join()

                def gather(connections, stop_event):
                    ready = connection_wait(connections)
                    stop_event.wait()
                    return ready

                def pump(connection):
                    return connection.recv()
            """,
        })
        result = lint(tmp_path, only=("REP006",))
        assert rules_of(result) == ["REP006"] * 4

    def test_accepts_bounded_blocking(self, tmp_path):
        write_tree(tmp_path, {
            "serving/good.py": """
                from multiprocessing.connection import wait as connection_wait

                def reap(process):
                    process.join(timeout=5.0)
                    process.join(5.0)

                def gather(connections, stop_event):
                    ready = connection_wait(connections, timeout=1.0)
                    stop_event.wait(0.25)
                    stop_event.wait(timeout=0.25)
                    return ready

                def pump(connection):
                    if not connection.poll(0.25):
                        return None
                    return connection.recv()
            """,
        })
        assert lint(tmp_path, only=("REP006",)).findings == []

    def test_str_join_and_recv_with_args_are_not_flagged(self, tmp_path):
        write_tree(tmp_path, {
            "serving/strings.py": """
                def render(parts, sock):
                    joined = ", ".join(parts)
                    data = sock.recv(4096)
                    return joined, data
            """,
        })
        assert lint(tmp_path, only=("REP006",)).findings == []

    def test_poll_in_another_function_does_not_excuse_recv(self, tmp_path):
        write_tree(tmp_path, {
            "serving/split.py": """
                def guard(connection):
                    return connection.poll(0.25)

                def pump(connection):
                    return connection.recv()
            """,
        })
        result = lint(tmp_path, only=("REP006",))
        assert rules_of(result) == ["REP006"]

    def test_scope_is_serving_and_shm_only(self, tmp_path):
        write_tree(tmp_path, {
            "agents/elsewhere.py": """
                def reap(process, connection):
                    process.join()
                    return connection.recv()
            """,
            "data/shm.py": """
                def pump(connection):
                    return connection.recv()
            """,
        })
        result = lint(tmp_path, only=("REP006",))
        assert [f.path for f in result.findings] == ["data/shm.py"]

    def test_suppression_with_reason_is_honored(self, tmp_path):
        write_tree(tmp_path, {
            "serving/justified.py": """
                def pump(connection):
                    return connection.recv()  # reprolint: disable=REP006 -- bounded by caller's wait()
            """,
        })
        result = lint(tmp_path, only=("REP006",))
        assert result.findings == []


# ----------------------------------------------------------------- REP007
class TestFleetColumnar:
    def test_flags_per_building_loops_and_scalarising_calls(self, tmp_path):
        write_tree(tmp_path, {
            "fleet/bad.py": """
                def accumulate(building_ids, telemetry):
                    rows = []
                    for building_id in building_ids:
                        rows.append({"id": building_id})
                    for i in range(len(building_ids)):
                        telemetry[i] += 1
                    return telemetry.tolist()
            """,
        })
        result = lint(tmp_path, only=("REP007",))
        assert rules_of(result) == ["REP007", "REP007", "REP007"]

    def test_flags_wrapped_iteration_and_dict_telemetry(self, tmp_path):
        write_tree(tmp_path, {
            "fleet/bad.py": """
                def fold(observations, rewards):
                    pairs = [obs for obs in zip(observations, rewards)]
                    return [{"reward": float(r)} for r in pairs]
            """,
        })
        result = lint(tmp_path, only=("REP007",))
        assert rules_of(result) == ["REP007", "REP007"]

    def test_columnar_code_group_loops_and_summaries_pass(self, tmp_path):
        write_tree(tmp_path, {
            "fleet/good.py": """
                import numpy as np

                def tick(groups, observations, rewards):
                    total = np.sum(rewards)
                    for group in groups:
                        group.step()
                    return total

                class Telemetry:
                    def report(self, groups):
                        return [{"name": g.name} for g in groups]
            """,
        })
        result = lint(tmp_path, only=("REP007",))
        assert result.findings == []

    def test_scope_is_fleet_only_and_suppression_honored(self, tmp_path):
        write_tree(tmp_path, {
            "env/elsewhere.py": """
                def walk(building_ids):
                    return [b for b in building_ids]
            """,
            "fleet/justified.py": """
                def mask(building_ids):
                    return [hash(b) for b in building_ids]  # reprolint: disable=REP007 -- one-shot setup
            """,
        })
        result = lint(tmp_path, only=("REP007",))
        assert result.findings == []
        assert result.suppressed_count == 1


# ----------------------------------------------------------------- REP008
class TestArenaCopy:
    def test_flags_copy_and_tolist_on_compiled_array_receivers(self, tmp_path):
        write_tree(tmp_path, {
            "serving/bad.py": """
                def scratch(compiled):
                    a = compiled.feature.copy()
                    b = compiled.action_pairs.tolist()
                    c = self_arena_view.copy()
                    return a, b, c
            """,
        })
        result = lint(tmp_path, only=("REP008",))
        assert rules_of(result) == ["REP008", "REP008", "REP008"]

    def test_non_arena_receivers_pass(self, tmp_path):
        write_tree(tmp_path, {
            "serving/good.py": """
                def descend(nodes, roots):
                    remaining = nodes.copy()
                    pinned = roots.copy()
                    return remaining, pinned
            """,
        })
        assert lint(tmp_path, only=("REP008",)).findings == []

    def test_scope_excludes_non_serving_modules(self, tmp_path):
        write_tree(tmp_path, {
            "experiments/tooling.py": """
                def snapshot(compiled):
                    return compiled.threshold.copy()
            """,
        })
        assert lint(tmp_path, only=("REP008",)).findings == []

    def test_unnameable_receivers_are_not_flagged(self, tmp_path):
        write_tree(tmp_path, {
            "serving/dynamic.py": """
                def rows(batch, resolve):
                    return batch[0].copy(), resolve("x").tolist()
            """,
        })
        assert lint(tmp_path, only=("REP008",)).findings == []


# ------------------------------------------------------------ suppressions
class TestSuppressions:
    def test_trailing_directive_silences_only_its_rule(self, tmp_path):
        write_tree(tmp_path, {
            "data/mixed.py": """
                import numpy as np

                def alloc(n):
                    a = np.zeros(n)  # reprolint: disable=REP001 -- width probe
                    b = np.zeros(n)  # reprolint: disable=REP002 -- wrong rule
                    return a, b
            """,
        })
        result = lint(tmp_path, only=("REP001",))
        assert len(result.findings) == 1
        assert result.suppressed_count == 1

    def test_standalone_directive_covers_next_code_line(self, tmp_path):
        write_tree(tmp_path, {
            "data/block.py": """
                import numpy as np

                def alloc(values):
                    # reprolint: disable=REP001 -- dtype-preserving on purpose,
                    # with the justification running over two comment lines.
                    return np.asarray(values)
            """,
        })
        result = lint(tmp_path, only=("REP001",))
        assert result.findings == []
        assert result.suppressed_count == 1

    def test_disable_all_and_multi_rule_forms(self):
        source = "x = 1  # reprolint: disable=all\ny = 2  # reprolint: disable=REP001, REP002\n"
        supp = parse_suppressions(source)
        assert is_suppressed(supp, "REP004", 1, 1)
        assert is_suppressed(supp, "REP001", 2, 2)
        assert is_suppressed(supp, "REP002", 2, 2)
        assert not is_suppressed(supp, "REP003", 2, 2)

    def test_directive_inside_string_literal_is_ignored(self):
        source = 's = "# reprolint: disable=REP001"\n'
        assert parse_suppressions(source) == {}

    def test_multiline_node_is_covered_by_first_line_comment(self, tmp_path):
        write_tree(tmp_path, {
            "data/span.py": """
                import numpy as np

                def alloc(n):
                    return np.full(  # reprolint: disable=REP001 -- spans lines
                        n,
                        1.0,
                    )
            """,
        })
        assert lint(tmp_path, only=("REP001",)).findings == []


# ---------------------------------------------------------------- baseline
class TestBaseline:
    def _finding(self, msg="dtype-less np.zeros()", line=3):
        return Finding("REP001", "data/x.py", line, "error", msg)

    def test_baseline_absorbs_known_debt_but_not_new(self):
        known = self._finding()
        baseline = Baseline.from_findings([known])
        new_finding = self._finding(msg="dtype-less np.full()")
        new, absorbed = baseline.filter_new([known, new_finding])
        assert absorbed == 1
        assert new == [new_finding]

    def test_line_moves_do_not_invalidate_the_baseline(self):
        baseline = Baseline.from_findings([self._finding(line=3)])
        new, absorbed = baseline.filter_new([self._finding(line=90)])
        assert new == [] and absorbed == 1

    def test_counts_gate_extra_identical_findings(self):
        baseline = Baseline.from_findings([self._finding()])
        new, absorbed = baseline.filter_new([self._finding(), self._finding(line=9)])
        assert absorbed == 1
        assert len(new) == 1

    def test_round_trip_and_missing_file(self, tmp_path):
        path = tmp_path / "baseline.json"
        assert Baseline.load(path).counts == {}
        baseline = Baseline.from_findings([self._finding(), self._finding(line=9)])
        baseline.save(path)
        assert Baseline.load(path).counts == baseline.counts

    def test_version_mismatch_is_rejected(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"version": 99, "findings": {}}))
        with pytest.raises(ValueError, match="version"):
            Baseline.load(path)

    def test_engine_applies_baseline_to_gate(self, tmp_path):
        write_tree(tmp_path, {
            "data/debt.py": """
                import numpy as np

                def alloc(n):
                    return np.zeros(n)
            """,
        })
        first = lint(tmp_path, only=("REP001",))
        assert not first.ok
        baseline = Baseline.from_findings(first.findings)
        second = lint(tmp_path, only=("REP001",), baseline=baseline)
        assert second.ok
        assert second.baselined_count == 1
        assert second.new_findings == []


# ------------------------------------------------------------ engine + CLI
class TestEngineAndCli:
    def test_unknown_rule_id_is_rejected(self):
        with pytest.raises(ValueError, match="REP999"):
            make_rules(("REP999",))

    def test_syntax_error_fails_the_gate(self, tmp_path):
        write_tree(tmp_path, {"data/broken.py": "def broken(:\n"})
        result = lint(tmp_path)
        assert not result.ok
        assert result.parse_errors

    def test_reporters_render(self, tmp_path):
        write_tree(tmp_path, {
            "data/bad.py": """
                import numpy as np

                def alloc(n):
                    return np.zeros(n)
            """,
        })
        result = lint(tmp_path, only=("REP001",))
        human = render_human(result)
        assert "REP001" in human and "FAIL" in human and "hint:" in human
        report = json.loads(render_json(result))
        assert report["ok"] is False
        assert report["counts_by_rule"] == {"REP001": 1}
        assert report["findings"][0]["path"] == "data/bad.py"

    def test_module_entry_point_gates_on_exit_code(self, tmp_path):
        write_tree(tmp_path, {
            "data/bad.py": """
                import numpy as np

                def alloc(n):
                    return np.zeros(n)
            """,
        })
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis", "--root", str(tmp_path),
             "--no-baseline", "--format", "json"],
            capture_output=True, text=True, env=child_env(),
        )
        assert proc.returncode == 1
        assert json.loads(proc.stdout)["new_finding_count"] == 1

    def test_write_baseline_then_pass(self, tmp_path):
        write_tree(tmp_path, {
            "data/bad.py": """
                import numpy as np

                def alloc(n):
                    return np.zeros(n)
            """,
        })
        baseline_path = tmp_path / "baseline.json"
        env = child_env()
        args = [sys.executable, "-m", "repro.analysis", "--root", str(tmp_path),
                "--baseline", str(baseline_path)]
        first = subprocess.run(args + ["--write-baseline"], capture_output=True,
                               text=True, env=env)
        assert first.returncode == 0
        second = subprocess.run(args, capture_output=True, text=True, env=env)
        assert second.returncode == 0, second.stdout + second.stderr

    def test_repro_lint_subcommand_is_wired(self):
        from repro.experiments.cli import build_parser

        args = build_parser().parse_args(["lint", "--select", "REP001"])
        assert args.select == "REP001"
        assert args.func.__name__ == "cmd_lint"


# ------------------------------------------------------------- real tree
class TestRealTree:
    def test_src_repro_is_lint_clean_against_committed_baseline(self):
        baseline = Baseline.load(REPO_ROOT / ".reprolint-baseline.json")
        result = run_lint(PACKAGE_ROOT, baseline=baseline)
        assert result.parse_errors == []
        assert result.gate_failures == [], render_human(result)

    def test_real_tree_schema_model_sees_the_batch_classes(self):
        from repro.analysis.engine import build_project

        project = build_project(PACKAGE_ROOT)
        for name in ("ColumnarBatch", "ObservationBatch", "ActionBatch",
                     "PolicyRequestBatch", "PolicyResponseBatch"):
            assert name in project.batch_classes
        api = project.class_api("ActionBatch")
        assert "indices" in api and "take" in api
