"""Tests for the ``python -m repro`` command-line interface."""

import json
from dataclasses import fields

import pytest

from repro.__main__ import _EXPERIMENTS, main
from repro.achilles import AchillesConfig
from repro.bench import experiments
from repro.systems.toy import TOY_LAYOUT

#: The first line each experiment's printer starts with (a prefix where
#: the line embeds a wall-clock time).
TITLES = {
    "toy": "1 Trojan finding(s) in ",
    "fsp": "FSP accuracy (Table 1, Achilles column)",
    "fsp-wildcard": "findings: 112; wildcard witnesses: 32",
    "pbft": "findings: ",
    "raft": "Raft follower ingress vs seeded ground truth",
    "tpc": "Two-phase-commit participant vs seeded ground truth",
    "broadcast": "Bracha broadcast node vs seeded ground truth",
}


class TestCli:
    def test_list_shows_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("toy", "fsp", "fsp-wildcard", "pbft"):
            assert name in out

    def test_toy_experiment(self, capsys):
        assert main(["toy"]) == 0
        out = capsys.readouterr().out
        assert "Trojan finding" in out

    def test_pbft_experiment(self, capsys):
        assert main(["pbft"]) == 0
        out = capsys.readouterr().out
        assert "MAC attack impact" in out
        assert "attack-50%" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["nonsense"])

    def test_workers_flag_rejected(self, capsys):
        """``--shards`` is the only parallelism flag."""
        with pytest.raises(SystemExit) as excinfo:
            main(["fsp", "--workers", "2"])
        assert excinfo.value.code == 2
        assert "--workers" in capsys.readouterr().err


class TestExperimentTable:
    def test_every_row_has_a_title(self):
        assert set(TITLES) == set(_EXPERIMENTS)

    @pytest.mark.parametrize("name", sorted(_EXPERIMENTS))
    def test_experiment_runs_and_prints_its_title(self, capsys, name):
        assert main([name]) == 0
        out = capsys.readouterr().out
        assert out.startswith(TITLES[name])
        assert "run health:" in out


class _Captured(Exception):
    """Stops a driver at the Achilles it would build."""


@pytest.fixture
def captured(monkeypatch):
    """The AchillesConfig each hunt is given, instead of hunting."""
    configs = []

    def capture(config):
        configs.append(config)
        raise _Captured

    monkeypatch.setattr(experiments, "Achilles", capture)
    return configs


#: Every shared run-settings flag, each off its default.
SHARED_FLAGS = ["--shards", "3", "--search-order", "bfs",
                "--max-paths", "7", "--progress"]

#: AchillesConfig fields no flag sets: the system's own description and
#: the transport test seam.
UNFLAGGED = {"layout", "mask", "optimizations", "destination", "msg_name",
             "transport"}


class TestFlagsReachTheConfig:
    def _assert_shared(self, config):
        assert config.shards == 3
        assert config.transport is None
        assert config.progress is True
        for engine in (config.client_engine, config.server_engine):
            assert engine.search_order == "bfs"
            assert engine.max_paths == 7

    def test_experiment_sets_every_run_setting(self, captured, tmp_path):
        with pytest.raises(_Captured):
            main(["toy", *SHARED_FLAGS,
                  "--trace-dir", str(tmp_path / "trace")])
        [config] = captured
        self._assert_shared(config)
        assert config.trace_dir == str(tmp_path / "trace")
        default = AchillesConfig(layout=TOY_LAYOUT)
        changed = {f.name for f in fields(AchillesConfig)
                   if getattr(config, f.name) != getattr(default, f.name)}
        assert changed == {f.name for f in fields(AchillesConfig)} - UNFLAGGED

    def test_corpus_run_sets_the_shared_settings(self, captured):
        with pytest.raises(_Captured):
            main(["corpus", "run", "--variants", "1", *SHARED_FLAGS])
        [config] = captured
        self._assert_shared(config)
        assert config.trace_dir is None


class TestBadSettings:
    """A setting the config rejects is an error message and exit 2."""

    @pytest.mark.parametrize("flags, message", [
        (["--shards", "0"], "shards must be >= 1"),
    ], ids=["shards-0"])
    def test_experiment(self, capsys, flags, message):
        assert main(["toy", *flags]) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("flags, message", [
        (["--shards", "0"], "shards must be >= 1"),
    ], ids=["shards-0"])
    def test_corpus_run(self, capsys, flags, message):
        assert main(["corpus", "run", "--variants", "1", *flags]) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("command", [["toy"], ["corpus", "run"]],
                             ids=["toy", "corpus-run"])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_non_positive_max_paths_fails_parsing(self, capsys, command,
                                                  value):
        with pytest.raises(SystemExit) as excinfo:
            main([*command, "--max-paths", value])
        assert excinfo.value.code == 2
        assert "--max-paths: must be a positive integer" in \
            capsys.readouterr().err


class TestNoRunJournal:
    """A run keeps no durable state: no run directory, no resume, no
    checkpoint flags, and a sharded run writes nothing."""

    @pytest.mark.parametrize("command", [["toy"], ["corpus", "run"]],
                             ids=["toy", "corpus-run"])
    @pytest.mark.parametrize("flag, value", [
        ("--run-dir", "run"), ("--resume", "run"),
        ("--checkpoint-interval", "4")])
    def test_journal_flags_rejected(self, capsys, command, flag, value):
        with pytest.raises(SystemExit) as excinfo:
            main([*command, flag, value])
        assert excinfo.value.code == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("command", [[], ["corpus"]],
                             ids=["experiments", "corpus"])
    def test_help_names_no_journal(self, capsys, command):
        with pytest.raises(SystemExit) as excinfo:
            main([*command, "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        for text in ("--run-dir", "--resume", "--checkpoint", "journal"):
            assert text not in out

    def test_sharded_toy_run_leaves_nothing_on_disk(self, capsys,
                                                    tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["toy", "--shards", "2"]) == 0
        assert "Trojan finding" in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []

    def test_sharded_fsp_run_leaves_nothing_on_disk(self, capsys, tmp_path,
                                                    monkeypatch):
        """FSP fans out to the workers, unlike the toy tree."""
        monkeypatch.chdir(tmp_path)
        assert main(["fsp", "--shards", "2"]) == 0
        assert "80/80" in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []

    def test_sharded_corpus_run_writes_only_its_report(self, capsys,
                                                       tmp_path,
                                                       monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["corpus", "run", "--variants", "2", "--corpus-seed",
                     "0", "--shards", "2", "--out", "corpus.json"]) == 0
        assert [p.name for p in tmp_path.iterdir()] == ["corpus.json"]

    def test_run_health_names_no_journal(self, capsys):
        assert main(["toy", "--shards", "2"]) == 0
        out = capsys.readouterr().out
        health = out[out.index("run health:"):]
        assert "journal" not in health
        assert "resumed" not in health


class TestNoDiskCache:
    """The query cache lives for one run: no flag, no subcommand."""

    def test_cache_dir_flag_rejected(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["toy", "--cache-dir", str(tmp_path / "cache")])
        assert excinfo.value.code == 2
        assert "--cache-dir" in capsys.readouterr().err

    def test_cache_subcommand_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["cache", "stats"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("verb", ["verify", "compact", "clear"])
    def test_cache_maintenance_verbs_rejected(self, capsys, verb):
        with pytest.raises(SystemExit) as excinfo:
            main(["cache", verb])
        assert excinfo.value.code == 2

    def test_corpus_run_rejects_cache_dir(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["corpus", "run", "--variants", "1",
                  "--cache-dir", str(tmp_path / "cache")])
        assert excinfo.value.code == 2
        assert "--cache-dir" in capsys.readouterr().err

    def test_toy_run_leaves_nothing_on_disk(self, capsys, tmp_path,
                                            monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["toy"]) == 0
        assert list(tmp_path.iterdir()) == []

    def test_list_does_not_name_cache(self, capsys):
        assert main(["list"]) == 0
        names = [line.split()[0]
                 for line in capsys.readouterr().out.splitlines()]
        assert "cache" not in names


class TestNoWorkerDaemon:
    """Shard workers are local processes: no daemon, no transport or
    host flags."""

    def test_worker_subcommand_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["worker", "--listen", "127.0.0.1:0"])
        assert excinfo.value.code == 2
        assert "worker" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["toy"], ["corpus", "run"]],
                             ids=["toy", "corpus-run"])
    @pytest.mark.parametrize("flag, value", [("--transport", "tcp"),
                                             ("--hosts", "a:1")])
    def test_transport_flags_rejected(self, capsys, command, flag, value):
        with pytest.raises(SystemExit) as excinfo:
            main([*command, flag, value])
        assert excinfo.value.code == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("command", [[], ["corpus"]],
                             ids=["experiments", "corpus"])
    def test_help_names_no_daemon_or_transport(self, capsys, command):
        with pytest.raises(SystemExit) as excinfo:
            main([*command, "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        for text in ("--transport", "--hosts", "daemon"):
            assert text not in out

    def test_list_does_not_name_worker(self, capsys):
        assert main(["list"]) == 0
        names = [line.split()[0]
                 for line in capsys.readouterr().out.splitlines()]
        assert "worker" not in names


class TestBroadcastExperiment:
    def test_broadcast_scores_perfectly_and_shows_the_demo(self, capsys):
        assert main(["broadcast"]) == 0
        out = capsys.readouterr().out
        assert "Bracha broadcast node" in out
        assert "7/7" in out
        assert "concrete impact" in out
        assert "strict control node delivered None" in out


class TestCorpusSubcommand:
    def test_run_scores_and_writes_the_report(self, capsys, tmp_path):
        out_file = tmp_path / "corpus.json"
        assert main(["corpus", "run", "--variants", "3",
                     "--corpus-seed", "0", "--out", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "Scenario-matrix corpus vs derived ground truth" in out
        assert "corpus seed          0" in out
        assert "reproduce any row" in out
        payload = json.loads(out_file.read_text())
        assert payload["all_perfect"] is True
        assert payload["variants"] == 3
        assert payload["templates"] == ["broadcast", "raft", "tpc"]

    def test_variant_token_reruns_a_single_row(self, capsys, tmp_path):
        out_file = tmp_path / "corpus.json"
        assert main(["corpus", "run", "--variants", "1",
                     "--corpus-seed", "0", "--out", str(out_file)]) == 0
        token = json.loads(out_file.read_text())["results"][0]["token"]
        capsys.readouterr()
        assert main(["corpus", "run", "--variant", token]) == 0
        out = capsys.readouterr().out
        assert token in out
        # a token rerun is not a generated corpus: no seed to print
        assert "corpus seed          -" in out

    def test_report_rerenders_a_saved_run(self, capsys, tmp_path):
        out_file = tmp_path / "corpus.json"
        assert main(["corpus", "run", "--variants", "1",
                     "--corpus-seed", "0", "--out", str(out_file)]) == 0
        capsys.readouterr()
        assert main(["corpus", "report", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "Scenario-matrix corpus vs derived ground truth" in out
        # re-rendered reports have no wall clocks, only '-' time cells
        assert " -" in out

    def test_malformed_token_exits_two(self, capsys):
        assert main(["corpus", "run", "--variant", "tpc"]) == 2
        assert "TEMPLATE:SEED" in capsys.readouterr().err

    def test_unknown_template_exits_two(self, capsys):
        assert main(["corpus", "run", "--templates", "paxos"]) == 2
        assert "paxos" in capsys.readouterr().err

    def test_workers_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["corpus", "run", "--workers", "2"])
        assert excinfo.value.code == 2
        assert "--workers" in capsys.readouterr().err

    def test_corpus_listed_in_experiment_list(self, capsys):
        assert main(["list"]) == 0
        assert "corpus" in capsys.readouterr().out


class TestTraceExportSalvage:
    """``trace export`` on a torn trace.jsonl exports the salvaged prefix
    with a warning instead of failing."""

    def _torn_trace(self, tmp_path):
        from repro.obs.trace import write_trace

        records = [{"seq": i, "kind": "event", "name": name,
                    "ts": float(i), "depth": 0, "src": "coordinator"}
                   for i, name in enumerate(["a", "b", "c"])]
        path = write_trace(tmp_path / "trace.jsonl", records)
        data = path.read_bytes()
        path.write_bytes(data[:-2])  # tear the last line
        return path

    def test_export_salvages_the_valid_prefix(self, capsys, tmp_path):
        path = self._torn_trace(tmp_path)
        assert main(["trace", "export", str(path)]) == 0
        captured = capsys.readouterr()
        assert "warning: trace" in captured.err
        assert "salvaged prefix" in captured.err
        out_path = path.with_suffix(".chrome.json")
        assert out_path.exists()
        chrome = json.loads(out_path.read_text())
        names = {e["name"] for e in chrome["traceEvents"]}
        # the torn record 'c' is gone; the prefix survives
        assert {"a", "b"} <= names
        assert "c" not in names

    def test_summarize_reports_the_damage(self, capsys, tmp_path):
        path = self._torn_trace(tmp_path)
        assert main(["trace", "summarize", str(path)]) == 0
        out = capsys.readouterr().out
        assert "records: 2" in out
        assert "damaged tail salvaged (line 3 has no final newline)" in out

    def test_summarize_names_a_garbage_line(self, capsys, tmp_path):
        path = self._torn_trace(tmp_path)
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(lines[0] + b"\x00garbage\n" + lines[1])
        assert main(["trace", "summarize", str(path)]) == 0
        out = capsys.readouterr().out
        assert "records: 1" in out
        assert "line 2 is not a JSON object" in out

    def test_summarize_empty_trace(self, capsys, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_bytes(b"")
        assert main(["trace", "summarize", str(path)]) == 0
        out = capsys.readouterr().out
        assert "records: 0" in out
        assert "damaged" not in out

    def test_missing_trace_exits_one(self, capsys, tmp_path):
        assert main(["trace", "summarize", str(tmp_path / "nope")]) == 1
        assert "cannot read trace" in capsys.readouterr().err

    def test_intact_trace_exports_without_warning(self, capsys, tmp_path):
        from repro.obs.trace import write_trace

        records = [{"seq": 0, "kind": "event", "name": "a", "ts": 0.0,
                    "depth": 0, "src": "coordinator"}]
        path = write_trace(tmp_path / "trace.jsonl", records)
        assert main(["trace", "export", str(path)]) == 0
        captured = capsys.readouterr()
        assert "warning" not in captured.err
        assert path.with_suffix(".chrome.json").exists()


class TestTracedShardedRun:
    """``--trace-dir`` on a sharded run writes a plain JSON Lines trace
    the inspector reads."""

    @pytest.fixture(scope="class")
    def trace_path(self, tmp_path_factory):
        # FSP, not toy: the toy tree is too small to fan out to workers.
        trace_dir = tmp_path_factory.mktemp("fsp") / "t"
        assert main(["fsp", "--shards", "2",
                     "--trace-dir", str(trace_dir)]) == 0
        return trace_dir / "trace.jsonl"

    def test_every_line_is_json(self, trace_path):
        lines = trace_path.read_text().splitlines()
        assert lines
        for line in lines:
            assert isinstance(json.loads(line), dict)
        assert json.loads(lines[-1])["kind"] == "metrics"
        assert {json.loads(line)["src"] for line in lines} >= {
            "coordinator", "worker-0"}

    def test_trace_dir_holds_only_the_trace(self, trace_path):
        assert [p.name for p in trace_path.parent.iterdir()] == [
            "trace.jsonl"]

    def test_summarize_and_export_succeed(self, capsys, tmp_path,
                                          trace_path):
        assert main(["trace", "summarize", str(trace_path.parent)]) == 0
        out = capsys.readouterr().out
        assert "damaged" not in out
        assert "coordinator.seed" in out
        chrome_path = tmp_path / "chrome.json"
        assert main(["trace", "export", str(trace_path),
                     "-o", str(chrome_path)]) == 0
        captured = capsys.readouterr()
        assert "warning" not in captured.err
        assert json.loads(chrome_path.read_text())["traceEvents"]

    def test_no_checkpoint_events(self, trace_path):
        names = {json.loads(line)["name"]
                 for line in trace_path.read_text().splitlines()}
        assert "coordinator.merge" in names
        assert not [name for name in names if "checkpoint" in name]

    def test_head_of_the_trace_reads_whole(self, tmp_path, trace_path):
        """Cutting the file at a line boundary (``head -n``) leaves a
        valid, shorter trace."""
        from repro.obs.trace import read_trace

        head = tmp_path / "head.jsonl"
        lines = trace_path.read_bytes().splitlines(keepends=True)
        head.write_bytes(b"".join(lines[:5]))
        loaded = read_trace(head)
        assert not loaded.damaged
        assert loaded.records == read_trace(trace_path).records[:5]

    def test_export_of_a_truncated_copy_warns(self, capsys, tmp_path,
                                              trace_path):
        data = trace_path.read_bytes()
        torn = tmp_path / "torn.jsonl"
        torn.write_bytes(data[:len(data) // 2])
        assert main(["trace", "export", str(torn)]) == 0
        captured = capsys.readouterr()
        assert "warning: trace" in captured.err
        intact = data[:len(data) // 2].count(b"\n")
        assert f"prefix of {intact} record(s)" in captured.err
