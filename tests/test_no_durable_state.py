"""A run keeps no durable state.

A hunt takes seconds, so a killed one is simply run again: there is no
run journal, no checkpoint/resume and no record framing. The query
cache and the sharded search's progress live in memory for one run; the
only file a run writes is the trace it is asked for (``--trace-dir``).
"""

import ast
import importlib
from pathlib import Path

import pytest

import repro.explore

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: Modules that persist Python objects or databases to disk.
PERSISTENCE_MODULES = ("pickle", "shelve", "dbm", "sqlite3", "marshal")


def _parsed_sources():
    for path in sorted(SRC.rglob("*.py")):
        yield path, ast.parse(path.read_text(), filename=str(path))


def _imported_roots(node) -> list[str]:
    if isinstance(node, ast.Import):
        return [alias.name.split(".")[0] for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        return [(node.module or "").split(".")[0]]
    return []


def _os_calls(name: str) -> list[str]:
    """``path:line`` of every ``os.<name>(...)`` call under src/repro."""
    found = []
    for path, tree in _parsed_sources():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == name
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "os"):
                found.append(f"{path.relative_to(SRC)}:{node.lineno}")
    return found


class TestRemovedModules:
    @pytest.mark.parametrize("module", ["repro.explore.checkpoint",
                                        "repro.framing"])
    def test_module_is_gone(self, module):
        with pytest.raises(ImportError):
            importlib.import_module(module)

    def test_explore_exports_no_journal_or_disk_fault_names(self):
        removed = {"RunJournal", "JournalMeta", "JournalReplay",
                   "load_journal", "outstanding_regions",
                   "KillCoordinatorAt", "CoordinatorKilled",
                   "TruncateSegment", "CorruptRecord", "TornWrite",
                   "apply_disk_fault"}
        assert not removed & set(repro.explore.__all__)
        assert not [name for name in removed
                    if hasattr(repro.explore, name)]


def _tree_setup(engine, depth):
    def program(ctx):
        for i in range(depth):
            ctx.branch(ctx.fresh_bool(f"b{i}"))
    return program, None


class TestShardedRunWritesNothing:
    def test_fanned_out_run_leaves_the_working_directory_empty(
            self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        result = repro.explore.ShardScheduler(
            _tree_setup, (6,), shards=2, seed_factor=2).run()
        assert len(result.exploration.paths) == 2 ** 6
        # The seed phase stopped early, so the workers did real work.
        assert result.worker_solver_stats.queries > 0
        assert list(tmp_path.iterdir()) == []

    def test_a_second_run_starts_from_scratch(self):
        """Nothing carries over between runs of one scheduler."""
        scheduler = repro.explore.ShardScheduler(
            _tree_setup, (5,), shards=2, seed_factor=2)
        first = scheduler.run()
        second = scheduler.run()
        assert ([p.decisions for p in second.exploration.paths]
                == [p.decisions for p in first.exploration.paths])
        assert second.worker_solver_stats.queries == (
            first.worker_solver_stats.queries)


class TestNoPersistenceCode:
    @pytest.mark.parametrize("module", PERSISTENCE_MODULES)
    def test_no_module_imports(self, module):
        offenders = [
            f"{path.relative_to(SRC)}:{node.lineno}"
            for path, tree in _parsed_sources()
            for node in ast.walk(tree)
            if module in _imported_roots(node)]
        assert not offenders, offenders

    def test_nothing_calls_fsync(self):
        assert _os_calls("fsync") == []

    def test_only_the_trace_writer_renames_files_into_place(self):
        assert [site.split(":")[0] for site in _os_calls("replace")] == [
            "obs/trace.py"]
