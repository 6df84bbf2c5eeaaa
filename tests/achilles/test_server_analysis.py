"""Unit tests for the incremental Trojan search on small synthetic servers,
plus replay parity of the observer's prefix trie on every workload."""

import hashlib

import pytest

from repro.achilles import Achilles, AchillesConfig, server_analysis
from repro.achilles.client_analysis import extract_client_predicates, preprocess
from repro.achilles.server_analysis import (
    OptimizationFlags,
    TrojanSearchObserver,
    a_posteriori_search,
    search_server,
)
from repro.bench.experiments import FSP_SESSION_MASK
from repro.messages.layout import Field, MessageLayout
from repro.messages.symbolic import MessageBuilder, field_expr, message_vars
from repro.solver import ast
from repro.solver.evalmodel import all_hold
from repro.solver.solver import Solver
from repro.solver.walk import collect_vars_all
from repro.symex.engine import Engine
from repro.systems import broadcast, fsp, raft, tpc
from repro.systems.pbft import REQUEST_LAYOUT, pbft_client, pbft_replica
from repro.systems.toy import TOY_LAYOUT, toy_client
from repro.systems.toy.server import toy_server

LAYOUT = MessageLayout("t", [Field("kind", 1), Field("v", 1)])
MSG = message_vars(LAYOUT, "msg")


def _client(ctx):
    """Sends kind=1 with v in [0, 50)."""
    value = ctx.fresh_byte("value")
    if not ctx.branch(value < 50):
        return
    builder = MessageBuilder(LAYOUT).set("kind", 1)
    builder.set_bytes("v", [value])
    ctx.send("server", builder.wire())


def _server_with_hole(ctx, msg):
    """Accepts kind=1 with v < 100: values in [50, 100) are Trojan."""
    kind = field_expr(msg, LAYOUT.view("kind"))
    value = field_expr(msg, LAYOUT.view("v"))
    if not ctx.branch(ast.eq(kind, ast.bv_const(1, 8))):
        ctx.reject()
    if not ctx.branch(value < 100):
        ctx.reject()
    ctx.accept()


def _exact_server(ctx, msg):
    """Accepts exactly what the client sends: no Trojans."""
    kind = field_expr(msg, LAYOUT.view("kind"))
    value = field_expr(msg, LAYOUT.view("v"))
    if not ctx.branch(ast.eq(kind, ast.bv_const(1, 8))):
        ctx.reject()
    if not ctx.branch(value < 50):
        ctx.reject()
    ctx.accept()


@pytest.fixture(scope="module")
def clients():
    predicates, stats = extract_client_predicates({"c": _client}, LAYOUT)
    return preprocess(predicates, LAYOUT, MSG, stats=stats)


class TestSearch:
    def test_finds_the_hole(self, clients):
        report, _ = search_server(_server_with_hole, clients, MSG)
        assert report.trojan_count == 1
        witness = report.findings[0].witness
        assert witness[0] == 1
        assert 50 <= witness[1] < 100

    def test_tight_server_has_no_findings(self, clients):
        report, _ = search_server(_exact_server, clients, MSG)
        assert report.trojan_count == 0
        # The accepting path was pruned before acceptance.
        assert report.server_paths_pruned >= 1

    def test_pruning_disabled_still_no_false_findings(self, clients):
        report, _ = search_server(
            _exact_server, clients, MSG,
            AchillesConfig(layout=LAYOUT,
                           optimizations=OptimizationFlags.all_off()))
        assert report.trojan_count == 0
        assert report.server_paths_pruned == 0

    def test_samples_recorded_per_constraint(self, clients):
        report, _ = search_server(_server_with_hole, clients, MSG)
        assert report.predicate_samples
        lengths = [length for length, _ in report.predicate_samples]
        assert min(lengths) >= 1

    def test_live_predicates_in_findings(self, clients):
        report, _ = search_server(_server_with_hole, clients, MSG)
        assert report.findings[0].live_predicates == (0,)


class TestAPosteriori:
    def test_same_trojans_as_incremental(self, clients):
        incremental, _ = search_server(_server_with_hole, clients, MSG)
        posterior = a_posteriori_search(_server_with_hole, clients, MSG)
        assert posterior.trojan_count == incremental.trojan_count == 1
        assert posterior.findings[0].witness[0] == 1
        assert 50 <= posterior.findings[0].witness[1] < 100

    def test_no_pruning_in_a_posteriori(self, clients):
        posterior = a_posteriori_search(_exact_server, clients, MSG)
        assert posterior.trojan_count == 0
        assert posterior.server_paths_pruned == 0


def _findings_digest(report) -> str:
    """Digest of the ordered witnesses and their decision vectors."""
    sha = hashlib.sha256()
    for finding in report.findings:
        sha.update(bytes(finding.decisions))
        sha.update(b"|")
        sha.update(finding.witness)
        sha.update(b"\n")
    return sha.hexdigest()[:16]


class TestAPosterioriOnFsp:
    """The §6.4 baseline on FSP finds exactly what the incremental search
    finds: every seeded class, no false positive, same witnesses."""

    FSP_DIGEST = "b1f938e2aa98f70f"

    @pytest.fixture(scope="class")
    def runs(self):
        config = AchillesConfig(layout=fsp.FSP_LAYOUT, mask=FSP_SESSION_MASK)
        with Achilles(config) as achilles:
            predicates = achilles.extract_clients(fsp.literal_clients())
            incremental = achilles.search(fsp.fsp_server, predicates)
            posterior = a_posteriori_search(fsp.fsp_server, predicates,
                                            achilles.server_msg)
        return incremental, posterior

    def test_scores_exactly_against_ground_truth(self, runs):
        _, posterior = runs
        score = fsp.GroundTruth.score(posterior.witnesses())
        assert posterior.trojan_count == 80
        assert score.false_positives == 0
        assert len(score.classes_found) == len(fsp.all_trojan_classes()) == 80

    def test_same_findings_as_incremental_search(self, runs):
        incremental, posterior = runs
        assert _findings_digest(incremental) == self.FSP_DIGEST
        assert _findings_digest(posterior) == self.FSP_DIGEST


class TestOptimizationFlagEquivalence:
    @pytest.mark.parametrize("flags", [
        OptimizationFlags(),
        OptimizationFlags(incremental_drop=False, use_different_from=False),
        OptimizationFlags(use_different_from=False),
        OptimizationFlags(prune_unreachable=False),
        OptimizationFlags.all_off(),
    ], ids=["all-on", "no-drop", "no-diff", "no-prune", "all-off"])
    def test_flags_do_not_change_findings(self, clients, flags):
        report, _ = search_server(
            _server_with_hole, clients, MSG,
            AchillesConfig(layout=LAYOUT, optimizations=flags))
        assert report.trojan_count == 1
        witness = report.findings[0].witness
        assert witness[0] == 1 and 50 <= witness[1] < 100


class _TrielessObserver(TrojanSearchObserver):
    """Forgets the prefix trie at every path start, so every replayed
    prefix recomputes its drop step and Trojan query from scratch."""

    def on_path_start(self, ctx):
        self._root = server_analysis._PrefixNode(self._root.live)
        super().on_path_start(ctx)


class _AuditingObserver(TrojanSearchObserver):
    """Checks every answer the trie gives without the engine — an
    inherited model or an interval refutation — against a fresh
    from-scratch ``Solver().check`` of the full query, and an inherited
    model against the query itself."""

    audits: list[int] = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.audits.append(0)

    def _decide(self, kind, pc, probe, model, predicate=None):
        engine_before = self.answered[kind + ".engine"]
        feasible, decided = super()._decide(kind, pc, probe, model, predicate)
        if self.answered[kind + ".engine"] == engine_before:
            query = pc + probe
            assert Solver().check(query).is_sat == feasible, (kind, pc)
            if feasible:
                assert collect_vars_all(query) <= decided.keys(), (kind, pc)
                assert all_hold(query, decided), (kind, pc)
            self.audits[-1] += 1
        return feasible, decided


#: name -> (AchillesConfig keywords, client programs, server program).
WORKLOADS = {
    "toy": ({"layout": TOY_LAYOUT}, lambda: {"toy": toy_client}, toy_server),
    "fsp": ({"layout": fsp.FSP_LAYOUT, "mask": FSP_SESSION_MASK},
            fsp.literal_clients, fsp.fsp_server),
    "pbft": ({"layout": REQUEST_LAYOUT, "destination": "replica0"},
             lambda: {"pbft-client": pbft_client}, pbft_replica),
    "raft": ({"layout": raft.RAFT_LAYOUT, "destination": "follower"},
             raft.peer_clients, raft.raft_follower),
    "tpc": ({"layout": tpc.TPC_LAYOUT, "destination": "participant"},
            tpc.coordinator_clients, tpc.tpc_participant),
    "broadcast": ({"layout": broadcast.BROADCAST_LAYOUT, "destination": "node"},
                  broadcast.peer_clients, broadcast.broadcast_node),
}

FLAGS = {
    "default": OptimizationFlags(),
    "all-off": OptimizationFlags.all_off(),
    "no-differentfrom": OptimizationFlags(use_different_from=False),
    "no-pruning": OptimizationFlags(prune_unreachable=False),
}


def _hunt(workload: str, flags: OptimizationFlags, observer_class):
    config, clients, server = WORKLOADS[workload]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(server_analysis, "TrojanSearchObserver", observer_class)
        with Achilles(AchillesConfig(optimizations=flags, **config)) as achilles:
            return achilles.search(server, achilles.extract_clients(clients()))


def _observable(report):
    """Everything the trie must leave unchanged."""
    findings = [(f.server_path_id, f.decisions, f.path_condition, f.negation,
                 f.witness, f.live_predicates, f.labels)
                for f in report.findings]
    return (findings, report.predicate_samples, report.server_paths_pruned,
            report.server_paths_explored)


class TestPrefixTrieReplayParity:
    @pytest.mark.parametrize("flags", FLAGS)
    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_trie_matches_recompute_from_scratch(self, workload, flags):
        with_trie = _hunt(workload, FLAGS[flags], TrojanSearchObserver)
        without = _hunt(workload, FLAGS[flags], _TrielessObserver)
        assert with_trie.findings
        assert _observable(with_trie) == _observable(without)
        # The trie saves solver work: a fresh child inherits the models
        # its parent kept, where a recompute from the root re-derives
        # them (a cache hit hands back no model to inherit).
        assert with_trie.solver_queries <= without.solver_queries
        assert with_trie.cache_misses <= without.cache_misses
        assert with_trie.cache_hits <= without.cache_hits
        if workload == "fsp" and flags != "all-off":
            assert with_trie.solver_queries < without.solver_queries
            assert with_trie.cache_misses < without.cache_misses

    @pytest.mark.parametrize("flags", FLAGS)
    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_trie_answers_agree_with_scratch_solver(self, workload, flags):
        _AuditingObserver.audits.clear()
        report = _hunt(workload, FLAGS[flags], _AuditingObserver)
        assert report.findings
        if flags != "all-off":  # no drop step and no Trojan query to audit
            assert sum(_AuditingObserver.audits) > 0

    def test_replayed_prefix_makes_no_engine_call(self, monkeypatch):
        engine_calls = [0]
        original = Engine.feasibility

        def counted(self, *args):
            engine_calls[0] += 1
            return original(self, *args)

        # Every feasibility question, from is_feasible and
        # probe_feasible_batch too, goes through Engine.feasibility.
        monkeypatch.setattr(Engine, "feasibility", counted)

        seen: set[tuple] = set()
        calls = {"fresh": [], "replayed": []}
        original_hook = TrojanSearchObserver.on_constraint

        def on_constraint(observer, ctx, constraint):
            prefix = tuple(ctx.state.constraints)
            kind = "replayed" if prefix in seen else "fresh"
            seen.add(prefix)
            before = engine_calls[0]
            keep = original_hook(observer, ctx, constraint)
            calls[kind].append(engine_calls[0] - before)
            return keep

        monkeypatch.setattr(TrojanSearchObserver, "on_constraint",
                            on_constraint)
        report = _hunt("fsp", OptimizationFlags(), TrojanSearchObserver)
        assert report.trojan_count == 80
        assert len(calls["replayed"]) > len(calls["fresh"]) > 0
        assert not any(calls["replayed"])
        # A fresh prefix may be decided by the trie alone (inherited
        # models and interval refutations), and on FSP some are.
        assert 0 in calls["fresh"] and any(calls["fresh"])
