"""Tests for the differentFrom matrix (§3.3)."""

import itertools
import pickle

import pytest

from repro.achilles.difference import DifferentFrom
from repro.achilles.mask import FieldMask
from repro.achilles.predicates import ClientPathPredicate
from repro.messages.layout import Field, MessageLayout
from repro.messages.symbolic import message_vars
from repro.solver import ast
from repro.solver.solver import Solver

LAYOUT = MessageLayout("t", [Field("x", 1), Field("y", 1)])
MSG = message_vars(LAYOUT, "m")

Y = ast.bv_var("y", 8)


def _pred(index, x_value, y_payload, constraints=()):
    payload = (ast.bv_const(x_value, 8), y_payload)
    return ClientPathPredicate(
        index=index, client="c", source_path_id=index, layout=LAYOUT,
        payload=payload, constraints=tuple(constraints))


class TestMatrixEntries:
    def test_paper_example_shape(self):
        """Figure 5 analogue: same x ranges, different concrete y values.

        differentFrom[0][1][y] is True (pred0 has y=2 which pred1 lacks)
        and symmetric; on x both predicates admit exactly the same values
        so both directions are False.
        """
        pred0 = _pred(0, 1, ast.bv_const(2, 8))
        pred1 = _pred(1, 1, ast.bv_const(7, 8))
        diff = DifferentFrom([pred0, pred1], MSG)
        assert diff.different(0, 1, "y")
        assert diff.different(1, 0, "y")
        assert not diff.different(0, 1, "x")
        assert not diff.different(1, 0, "x")

    def test_subset_ranges_are_asymmetric(self):
        # pred0 admits y in [0,50), pred1 admits y in [0,100): pred1 has
        # extra values, pred0 does not.
        pred0 = _pred(0, 1, Y, [Y < 50])
        pred1 = _pred(1, 1, Y, [Y < 100])
        diff = DifferentFrom([pred0, pred1], MSG)
        assert not diff.different(0, 1, "y")
        assert diff.different(1, 0, "y")

    def test_self_comparison_is_false(self):
        pred0 = _pred(0, 1, ast.bv_const(2, 8))
        diff = DifferentFrom([pred0], MSG)
        assert not diff.different(0, 0, "y")

    def test_missing_entries_default_true(self):
        pred0 = _pred(0, 1, ast.bv_const(2, 8))
        pred1 = _pred(1, 1, ast.bv_const(7, 8))
        diff = DifferentFrom([pred0, pred1], MSG)
        # Unknown field: conservative default disables the shortcut.
        assert diff.different(0, 1, "nonexistent")


class TestDroppable:
    def test_droppable_lists_equal_valued_peers(self):
        pred0 = _pred(0, 1, Y, [Y < 50])
        pred1 = _pred(1, 1, Y, [Y < 100])
        diff = DifferentFrom([pred0, pred1], MSG)
        # If pred1 dies from a y-constraint, pred0 (subset on y) dies too.
        assert diff.droppable_with(1, "y", range(2)) == [0]
        # The converse does not hold.
        assert diff.droppable_with(0, "y", range(2)) == []

    def test_mask_skips_hidden_fields(self):
        pred0 = _pred(0, 1, ast.bv_const(2, 8))
        pred1 = _pred(1, 1, ast.bv_const(7, 8))
        diff = DifferentFrom([pred0, pred1], MSG, mask=FieldMask.hide("y"))
        # A hidden field has no entry to compute: default True, no query.
        assert diff.different(0, 1, "y")
        assert diff.stats.entries_computed == 0
        # A visible field is probed on lookup.
        assert not diff.different(0, 1, "x")
        assert diff.stats.entries_computed == 1

    def test_dependent_fields_skipped(self):
        # y's variable also feeds x: not independent, no entry computed.
        shared = Y
        payload0 = (shared, shared)
        pred0 = ClientPathPredicate(
            index=0, client="c", source_path_id=0, layout=LAYOUT,
            payload=payload0, constraints=(Y < 10,))
        pred1 = _pred(1, 1, ast.bv_const(7, 8))
        diff = DifferentFrom([pred0, pred1], MSG)
        for field in ("x", "y"):
            assert diff.different(0, 1, field)
            assert diff.different(1, 0, field)
        assert diff.stats.entries_computed == 0

    def test_lookup_is_restricted_to_among(self):
        pred0 = _pred(0, 1, Y, [Y < 50])
        pred1 = _pred(1, 1, Y, [Y < 100])
        pred2 = _pred(2, 1, Y, [Y < 20])
        diff = DifferentFrom([pred0, pred1, pred2], MSG)
        assert diff.droppable_with(1, "y", among={2}) == [2]
        # Only the (2, 1, y) entry was needed.
        assert diff.stats.entries_computed == 1
        assert diff.droppable_with(1, "y", range(3)) == [0, 2]
        assert diff.stats.entries_computed == 2


def _extract(system: str):
    from repro.achilles import Achilles, AchillesConfig
    from repro.bench.experiments import FSP_SESSION_MASK
    from repro.systems import fsp
    from repro.systems.toy import TOY_LAYOUT, toy_client

    if system == "toy":
        config, clients = AchillesConfig(layout=TOY_LAYOUT), {"toy": toy_client}
    else:
        config = AchillesConfig(layout=fsp.FSP_LAYOUT, mask=FSP_SESSION_MASK)
        clients = fsp.literal_clients(
            dict(itertools.islice(fsp.COMMANDS.items(), 2)))
    with Achilles(config) as achilles:
        return (achilles.extract_clients(clients), achilles.server_msg,
                config.mask)


class TestLazyMatchesEager:
    """Every lazily computed entry is the answer the eager §3.3 build
    gave: a from-scratch check of ``pred_i.combined(msg) + (neg_j,)``
    where the field is visible and independent in both predicates and
    ``j``'s negation survived, True everywhere else."""

    @pytest.fixture(scope="class", params=["toy", "fsp-2-utilities"])
    def system(self, request):
        clients, msg, mask = _extract(request.param)
        negations = {(n.pred_index, d.field): d.expr
                     for n in clients.negations for d in n.disjuncts}
        visible = mask.visible_fields(clients.layout)
        eager = {}
        for pred_i, pred_j in itertools.permutations(clients.predicates, 2):
            for field in clients.layout.field_names:
                negation = negations.get((pred_j.index, field))
                probed = (field in visible and negation is not None
                          and pred_i.field_is_independent(field)
                          and pred_j.field_is_independent(field))
                eager[(pred_i.index, pred_j.index, field)] = (
                    Solver().check(pred_i.combined(msg) + (negation,)).is_sat
                    if probed else True)
        return clients, msg, mask, eager

    def test_every_entry_matches(self, system):
        clients, _, _, eager = system
        matrix = clients.different_from
        assert {key: matrix.different(*key) for key in eager} == eager
        assert matrix.stats.entries_computed > 0

    def test_droppable_with_matches_its_eager_definition(self, system):
        clients, _, _, eager = system
        indices = range(len(clients))
        for i, field in itertools.product(indices,
                                          clients.layout.field_names):
            assert clients.different_from.droppable_with(
                i, field, indices) == [
                j for j in indices if j != i and not eager[(j, i, field)]]

    def test_round_tripped_matrix_gives_the_same_answers(self, system):
        """A shipped matrix keeps its memo table but no row stacks; a
        worker computes the entries it still lacks on stacks of its own."""
        clients, msg, mask, eager = system
        matrix = DifferentFrom(clients.predicates, msg, mask,
                               negations=clients.negations)
        for key in eager:
            if key[0] % 2 == 0:  # fill every other row before shipping
                matrix.different(*key)
        clone = pickle.loads(pickle.dumps(matrix))
        assert clone._rows == {}
        assert clone._table == matrix._table
        assert {key: clone.different(*key) for key in eager} == eager
