"""Unit tests for PC extraction and pre-processing."""

import pytest

from repro.achilles.client_analysis import (
    extract_client_predicates,
    preprocess,
)
from repro.achilles.mask import FieldMask
from repro.errors import AchillesError
from repro.messages.layout import Field, MessageLayout
from repro.messages.symbolic import MessageBuilder, message_vars
from repro.solver import ast
from repro.solver.service import SolverService
from repro.solver.solver import Solver

LAYOUT = MessageLayout("t", [Field("kind", 1), Field("v", 1)])
MSG = message_vars(LAYOUT, "m")


def _client_sending(kind: int, bound: int | None = None):
    def client(ctx):
        value = ctx.fresh_byte("value")
        if bound is not None and not ctx.branch(value < bound):
            return
        builder = MessageBuilder(LAYOUT)
        builder.set("kind", kind)
        builder.set_bytes("v", [value])
        ctx.send("server", builder.wire())

    return client


class TestExtraction:
    def test_one_predicate_per_sending_path(self):
        predicates, stats = extract_client_predicates(
            {"a": _client_sending(1)}, LAYOUT)
        assert len(predicates) == 1
        assert stats.messages_captured == 1

    def test_branching_client_yields_multiple_predicates(self):
        predicates, _ = extract_client_predicates(
            {"a": _client_sending(1, bound=10)}, LAYOUT)
        assert len(predicates) == 1  # only the sending path sends

    def test_client_labels_preserved(self):
        predicates, _ = extract_client_predicates(
            {"my-utility": _client_sending(2)}, LAYOUT)
        assert predicates[0].client == "my-utility"

    def test_list_clients_get_generated_names(self):
        predicates, _ = extract_client_predicates(
            [_client_sending(1), _client_sending(2)], LAYOUT)
        assert {p.client for p in predicates} == {"client0", "client1"}

    def test_destination_filter(self):
        def chatty(ctx):
            builder = MessageBuilder(LAYOUT).set("kind", 1).set("v", 2)
            ctx.send("other", builder.wire())
            ctx.send("server", builder.wire())

        predicates, _ = extract_client_predicates(
            {"c": chatty}, LAYOUT, destination="server")
        assert len(predicates) == 1

    def test_wrong_size_message_rejected(self):
        def bad(ctx):
            ctx.send("server", [1, 2, 3])

        with pytest.raises(AchillesError):
            extract_client_predicates({"c": bad}, LAYOUT)

    def test_duplicate_predicates_removed(self):
        # Two clients sending the identical concrete message.
        def fixed(ctx):
            builder = MessageBuilder(LAYOUT).set("kind", 1).set("v", 2)
            ctx.send("server", builder.wire())

        predicates, stats = extract_client_predicates(
            {"a": fixed, "b": fixed}, LAYOUT)
        assert len(predicates) == 1
        assert stats.duplicates_removed == 1

    def test_indices_contiguous_after_dedup(self):
        predicates, _ = extract_client_predicates(
            {"a": _client_sending(1), "b": _client_sending(2)}, LAYOUT)
        assert [p.index for p in predicates] == list(range(len(predicates)))


class TestPreprocess:
    def test_builds_negation_per_predicate(self):
        predicates, stats = extract_client_predicates(
            {"a": _client_sending(1, bound=10),
             "b": _client_sending(2, bound=20)}, LAYOUT)
        prepared = preprocess(predicates, LAYOUT, MSG, stats=stats)
        assert len(prepared.negations) == 2
        assert all(not n.is_vacuous for n in prepared.negations)

    def test_mask_validated_against_layout(self):
        predicates, _ = extract_client_predicates(
            {"a": _client_sending(1)}, LAYOUT)
        with pytest.raises(AchillesError):
            preprocess(predicates, LAYOUT, MSG, mask=FieldMask.hide("zzz"))

    def test_difference_matrix_optional(self):
        """Pre-processing poses no matrix query; the search computes
        entries only when ``use_different_from`` consults the matrix."""
        from repro.achilles import Achilles, AchillesConfig
        from repro.achilles.server_analysis import OptimizationFlags
        from repro.systems.toy import TOY_LAYOUT, toy_client, toy_server

        for use_different_from in (True, False):
            flags = OptimizationFlags(use_different_from=use_different_from)
            with Achilles(AchillesConfig(layout=TOY_LAYOUT,
                                         optimizations=flags)) as achilles:
                prepared = achilles.extract_clients({"toy": toy_client})
                matrix = prepared.different_from
                assert matrix.stats.entries_computed == 0
                achilles.search(toy_server, prepared)
            assert (matrix.stats.entries_computed > 0) == use_different_from
            assert bool(matrix._table) == use_different_from

    def test_timings_recorded(self):
        predicates, stats = extract_client_predicates(
            {"a": _client_sending(1)}, LAYOUT)
        prepared = preprocess(predicates, LAYOUT, MSG, stats=stats)
        assert prepared.stats.extraction_seconds > 0
        assert prepared.stats.preprocess_seconds > 0

    def test_negations_ride_the_service_and_the_matrix_does_not(self):
        """The negate overlap checks go to the service as one batch per
        predicate prefix; the ``differentFrom`` entries never do, before
        or after a lookup."""
        class Recording(SolverService):
            def __init__(self):
                super().__init__()
                self.prefixes = []

            def probe_batch(self, prefix, probes):
                self.prefixes.append(tuple(prefix))
                return super().probe_batch(prefix, probes)

        predicates, _ = extract_client_predicates(
            {"a": _client_sending(1, bound=10),
             "b": _client_sending(2, bound=20)}, LAYOUT)
        service = Recording()
        prepared = preprocess(predicates, LAYOUT, MSG, service=service)
        assert service.prefixes == [p.combined(MSG) for p in predicates]
        prepared.different_from.droppable_with(0, "v", range(2))
        assert prepared.different_from.stats.entries_computed > 0
        assert len(service.prefixes) == len(predicates)

    def test_default_service_counts_on_the_given_solver(self):
        predicates, _ = extract_client_predicates(
            {"a": _client_sending(1, bound=10),
             "b": _client_sending(2, bound=20)}, LAYOUT)
        solver = Solver()
        preprocess(predicates, LAYOUT, MSG, solver=solver)
        assert solver.stats.frames_pushed > 0
