"""AchillesConfig validation: bad parallelism knobs fail fast and clearly."""

import pytest

from repro.achilles import AchillesConfig
from repro.errors import AchillesError
from repro.symex.engine import EngineConfig
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
        assert "prefixes_reassigned" not in names

    def test_retry_budget_is_gone(self):
        """Neither the config nor the scheduler takes a retry budget."""
        import dataclasses

        from repro.explore import ShardScheduler

        names = {f.name for f in dataclasses.fields(AchillesConfig)}
        assert "max_worker_retries" not in names
        with pytest.raises(TypeError, match="max_worker_retries"):
            AchillesConfig(layout=TOY_LAYOUT, max_worker_retries=0)
        with pytest.raises(TypeError, match="max_worker_retries"):
            ShardScheduler(lambda engine: (None, None), (), shards=2,
                           max_worker_retries=2)

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


class TestNoRunJournal:
    """A run keeps no durable state: no run directory, checkpoint or
    resume setting anywhere from the config down to the scheduler."""

    @pytest.mark.parametrize("name, value", [
        ("run_dir", "run"), ("resume", True), ("checkpoint_interval", 1)])
    def test_config_rejects_journal_settings(self, name, value):
        with pytest.raises(TypeError, match=name):
            AchillesConfig(layout=TOY_LAYOUT, shards=2, **{name: value})

    def test_report_carries_no_journal_counters(self):
        import dataclasses

        from repro.achilles import AchillesReport

        names = {f.name for f in dataclasses.fields(AchillesReport)}
        assert not names & {"checkpoints_written", "resumed_regions"}

    def test_sharded_exploration_carries_no_journal_counters(self):
        import dataclasses

        from repro.explore import ShardedExploration

        names = {f.name for f in dataclasses.fields(ShardedExploration)}
        assert not names & {"journal_checkpoints", "resumed_regions"}

    @pytest.mark.parametrize("name, value", [
        ("run_dir", "run"), ("resume", True), ("checkpoint_interval", 1),
        ("checkpoint_hook", print)])
    def test_scheduler_rejects_journal_settings(self, name, value):
        from repro.achilles.server_analysis import _shard_setup
        from repro.explore import ShardScheduler

        with pytest.raises(TypeError, match=name):
            ShardScheduler(_shard_setup, shards=2, **{name: value})

    @pytest.mark.parametrize("owner, name, value", [
        ("config", "on_worker_loss", "recover"),
        ("scheduler", "on_worker_loss", "recover"),
        ("scheduler", "engine_config", EngineConfig())])
    def test_rejects_worker_loss_settings(self, owner, name, value):
        """A lost worker is always survived, so neither the config nor
        the scheduler takes a loss policy; workers build their engines
        from the coordinator engine's config, so the scheduler takes no
        engine config of its own either."""
        from repro.achilles.server_analysis import _shard_setup
        from repro.explore import ShardScheduler

        with pytest.raises(TypeError, match=name):
            if owner == "config":
                AchillesConfig(layout=TOY_LAYOUT, **{name: value})
            else:
                ShardScheduler(_shard_setup, shards=2, **{name: value})

    def test_search_server_takes_no_checkpoint_hook(self):
        from repro.achilles.server_analysis import search_server
        from repro.messages.symbolic import message_vars
        from repro.systems.toy import toy_server

        with pytest.raises(TypeError, match="checkpoint_hook"):
            search_server(toy_server, None, message_vars(TOY_LAYOUT),
                          checkpoint_hook=print)


def _reduced_fsp_search(monkeypatch, shards, **settings):
    """A reduced FSP hunt; returns the report, the coordinator's query
    cache and the sharded result (None for a serial walk)."""
    import itertools

    import repro.explore
    from repro.achilles import Achilles
    from repro.bench.experiments import FSP_SESSION_MASK
    from repro.systems import fsp

    runs = []

    class Recording(repro.explore.ShardScheduler):
        def run(self):
            runs.append(super().run())
            return runs[-1]

    monkeypatch.setattr(repro.explore, "ShardScheduler", Recording)
    commands = dict(itertools.islice(fsp.COMMANDS.items(), 4))
    config = AchillesConfig(layout=fsp.FSP_LAYOUT, mask=FSP_SESSION_MASK,
                            shards=shards, **settings)
    with Achilles(config) as achilles:
        predicates = achilles.extract_clients(fsp.literal_clients(commands))
        report = achilles.search(fsp.fsp_server, predicates)
    return report, achilles.query_cache, (runs[0] if runs else None)


class TestShardedCacheCounters:
    """A sharded report counts every query-cache lookup: the
    coordinator's cache plus each worker's private one."""

    @pytest.mark.parametrize("shards", [2, 4])
    def test_sharded_report_adds_the_workers_cache_traffic(self,
                                                           monkeypatch,
                                                           shards):
        report, cache, sharded = _reduced_fsp_search(monkeypatch, shards)
        workers = sharded.worker_solver_stats
        assert workers.cache_hits + workers.cache_misses > 0
        assert report.cache_hits == cache.stats.hits + workers.cache_hits
        assert report.cache_misses == (cache.stats.misses
                                       + workers.cache_misses)

    def test_trace_trailer_agrees_with_the_report(self, monkeypatch,
                                                  tmp_path):
        from repro.obs.trace import read_trace

        report, _, _ = _reduced_fsp_search(monkeypatch, 2,
                                           trace_dir=str(tmp_path))
        trailer = read_trace(tmp_path / "trace.jsonl").records[-1]
        counters = trailer["attrs"]["counters"]
        assert (counters["cache.hits"], counters["cache.misses"]) == (
            report.cache_hits, report.cache_misses)
        assert "run.journal_checkpoints" not in counters

    def test_serial_report_is_the_one_cache(self, monkeypatch):
        report, cache, sharded = _reduced_fsp_search(monkeypatch, 1)
        assert sharded is None
        assert (report.cache_hits, report.cache_misses) == (
            cache.stats.hits, cache.stats.misses)


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
