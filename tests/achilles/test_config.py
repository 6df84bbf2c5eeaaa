"""AchillesConfig validation: bad parallelism knobs fail fast and clearly."""

import pytest

from repro.achilles import AchillesConfig
from repro.errors import AchillesError
from repro.systems.toy import TOY_LAYOUT


class TestParallelismValidation:
    def test_rejects_zero_shards(self):
        with pytest.raises(AchillesError, match="shards must be >= 1"):
            AchillesConfig(layout=TOY_LAYOUT, shards=0)

    def test_rejects_negative_shards(self):
        with pytest.raises(AchillesError, match="shards must be >= 1"):
            AchillesConfig(layout=TOY_LAYOUT, shards=-1)

    def test_serial_defaults_accepted(self):
        config = AchillesConfig(layout=TOY_LAYOUT)
        assert config.shards == 1

    def test_parallel_counts_accepted(self):
        config = AchillesConfig(layout=TOY_LAYOUT, shards=2)
        assert config.shards == 2

    def test_workers_is_not_a_knob(self):
        """Shards are the only parallelism axis: there is no solver pool
        to size."""
        with pytest.raises(TypeError, match="workers"):
            AchillesConfig(layout=TOY_LAYOUT, workers=2)

    def test_report_carries_no_worker_count(self):
        import dataclasses

        from repro.achilles import AchillesReport

        names = {f.name for f in dataclasses.fields(AchillesReport)}
        assert "shards" in names
        assert "workers" not in names

    def test_rejects_unknown_worker_loss_policy(self):
        with pytest.raises(AchillesError, match="on_worker_loss"):
            AchillesConfig(layout=TOY_LAYOUT, on_worker_loss="shrug")

    def test_rejects_negative_retry_budget(self):
        with pytest.raises(AchillesError,
                           match="max_worker_retries must be >= 0"):
            AchillesConfig(layout=TOY_LAYOUT, max_worker_retries=-1)

    def test_recovery_knobs_accepted(self):
        config = AchillesConfig(layout=TOY_LAYOUT, shards=2,
                                on_worker_loss="recover",
                                max_worker_retries=0)
        assert config.on_worker_loss == "recover"
        assert config.max_worker_retries == 0

    def test_transport_instance_accepted(self):
        from repro.explore import LocalTransport

        transport = LocalTransport()
        config = AchillesConfig(layout=TOY_LAYOUT, shards=2,
                                transport=transport)
        assert config.transport is transport

    def test_hosts_is_not_a_knob(self):
        """Shard workers are local processes: there are no hosts."""
        with pytest.raises(TypeError, match="hosts"):
            AchillesConfig(layout=TOY_LAYOUT, hosts=("127.0.0.1:9100",))

    @pytest.mark.parametrize("name", ["tcp", "local", "carrier-pigeon"])
    def test_transport_names_rejected(self, name):
        """The field is a seam for Transport instances; no name selects
        a transport."""
        with pytest.raises(AchillesError, match="Transport instance"):
            AchillesConfig(layout=TOY_LAYOUT, shards=2, transport=name)

    def test_persistence_knobs_accepted(self, tmp_path):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        from repro.explore.checkpoint import JOURNAL_NAME
        from repro.framing import HEADER

        (run_dir / JOURNAL_NAME).write_bytes(HEADER)
        config = AchillesConfig(layout=TOY_LAYOUT, shards=2,
                                run_dir=str(run_dir),
                                checkpoint_interval=5, resume=True)
        assert config.checkpoint_interval == 5
        assert config.resume

    def test_cache_dir_is_not_a_knob(self, tmp_path):
        """The query cache lives in memory for one run: there is no
        directory to persist it to."""
        with pytest.raises(TypeError, match="cache_dir"):
            AchillesConfig(layout=TOY_LAYOUT,
                           cache_dir=str(tmp_path / "cache"))

    def test_report_carries_no_disk_cache_counters(self):
        import dataclasses

        from repro.achilles import AchillesReport

        names = {f.name for f in dataclasses.fields(AchillesReport)}
        assert "cache_hits" in names
        assert not names & {"disk_hits", "salvaged_records",
                            "dropped_records"}

    def test_stats_carry_no_disk_cache_counters(self):
        import dataclasses

        from repro.solver.cache import CacheStats
        from repro.solver.solver import SolverStats

        for stats in (CacheStats, SolverStats):
            names = {f.name for f in dataclasses.fields(stats)}
            assert not names & {"disk_hits", "salvaged_records",
                                "dropped_records"}, stats.__name__

    def test_both_phases_fill_one_in_memory_cache(self):
        from repro.achilles import Achilles
        from repro.systems.toy import toy_client, toy_server

        achilles = Achilles(AchillesConfig(layout=TOY_LAYOUT))
        cache = achilles.query_cache
        predicates = achilles.extract_clients({"toy": toy_client})
        after_phase_1 = (len(cache), cache.stats.misses)
        assert after_phase_1[0] > 0
        report = achilles.search(toy_server, predicates)
        assert achilles.query_cache is cache
        assert len(cache) > after_phase_1[0]
        assert cache.stats.misses > after_phase_1[1]
        assert (report.cache_hits, report.cache_misses) == (
            cache.stats.hits, cache.stats.misses)

    def test_close_is_idempotent(self):
        from repro.achilles import Achilles
        from repro.systems.toy import toy_client, toy_server

        with Achilles(AchillesConfig(layout=TOY_LAYOUT)) as achilles:
            report = achilles.run({"toy": toy_client}, toy_server)
        achilles.close()
        achilles.close()
        assert len(report.findings) == 1

    def test_run_dir_pointing_at_file_rejected(self, tmp_path):
        not_a_dir = tmp_path / "run"
        not_a_dir.write_text("plain file")
        with pytest.raises(AchillesError, match="run_dir points at a"):
            AchillesConfig(layout=TOY_LAYOUT, shards=2,
                           run_dir=str(not_a_dir))

    def test_run_dir_without_shards_rejected(self, tmp_path):
        with pytest.raises(AchillesError, match="no coordinator to"):
            AchillesConfig(layout=TOY_LAYOUT,
                           run_dir=str(tmp_path / "run"))

    def test_bad_checkpoint_interval_rejected(self):
        with pytest.raises(AchillesError,
                           match="checkpoint_interval must be >= 1"):
            AchillesConfig(layout=TOY_LAYOUT, checkpoint_interval=0)

    def test_resume_without_run_dir_rejected(self):
        with pytest.raises(AchillesError, match="resume=True needs run_dir"):
            AchillesConfig(layout=TOY_LAYOUT, shards=2, resume=True)

    def test_resume_without_journal_rejected(self, tmp_path):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        with pytest.raises(AchillesError, match="does not.*exist"):
            AchillesConfig(layout=TOY_LAYOUT, shards=2,
                           run_dir=str(run_dir), resume=True)

    def test_sharded_bfs_rejected(self):
        """Sharded merge order == DFS completion order; a BFS serial run
        orders findings differently, so the combination fails loudly."""
        from repro.achilles import Achilles
        from repro.symex.engine import BFS, EngineConfig
        from repro.systems.toy import toy_client, toy_server

        config = AchillesConfig(layout=TOY_LAYOUT, shards=2,
                                server_engine=EngineConfig(search_order=BFS))
        with Achilles(config) as achilles:
            predicates = achilles.extract_clients({"toy": toy_client})
            with pytest.raises(AchillesError, match="dfs"):
                achilles.search(toy_server, predicates)


class _SchedulerBuilt(Exception):
    """Stops a sharded search at the scheduler it built."""


class TestTransportSeam:
    """``AchillesConfig.transport`` reaches the shard scheduler as given;
    None means local worker processes."""

    def _scheduler_transport(self, monkeypatch, transport):
        import repro.explore
        from repro.achilles import Achilles
        from repro.systems.toy import toy_client, toy_server

        seen = []

        class Capturing(repro.explore.ShardScheduler):
            def run(self):
                seen.append(self.transport)
                raise _SchedulerBuilt

        monkeypatch.setattr(repro.explore, "ShardScheduler", Capturing)
        config = AchillesConfig(layout=TOY_LAYOUT, shards=2,
                                transport=transport)
        with Achilles(config) as achilles:
            predicates = achilles.extract_clients({"toy": toy_client})
            with pytest.raises(_SchedulerBuilt):
                achilles.search(toy_server, predicates)
        [built] = seen
        return built

    def test_default_is_local(self, monkeypatch):
        from repro.explore import LocalTransport

        assert AchillesConfig(layout=TOY_LAYOUT).transport is None
        built = self._scheduler_transport(monkeypatch, None)
        assert type(built) is LocalTransport

    def test_instance_passes_through(self, monkeypatch):
        from repro.explore import FaultPlan, FaultyTransport, LocalTransport

        instance = FaultyTransport(LocalTransport(), FaultPlan())
        assert self._scheduler_transport(monkeypatch, instance) is instance
