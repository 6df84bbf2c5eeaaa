"""Unit tests for client path predicates."""

import pytest

from repro.achilles.predicates import ClientPathPredicate
from repro.errors import AchillesError
from repro.messages.layout import Field, MessageLayout
from repro.solver import ast, check

LAYOUT = MessageLayout("t", [Field("a", 1), Field("b", 2), Field("c", 1)])

A = ast.bv_var("a", 8)
B = ast.bv_var("b", 16)
X = ast.bv_var("x", 8)


def _pred(payload, constraints=(), index=0):
    return ClientPathPredicate(
        index=index, client="c", source_path_id=0, layout=LAYOUT,
        payload=tuple(payload), constraints=tuple(constraints))


def _payload_with(b_expr):
    return (ast.bv_const(1, 8), ast.extract(b_expr, 15, 8),
            ast.extract(b_expr, 7, 0), ast.bv_const(9, 8))


class TestFieldAccess:
    def test_wrong_payload_size_rejected(self):
        with pytest.raises(AchillesError):
            _pred([ast.bv_const(0, 8)] * 3)

    def test_field_value_assembles_bytes(self):
        pred = _pred(_payload_with(ast.bv_const(0x1234, 16)))
        assert pred.field_value("b").value == 0x1234

    def test_field_is_concrete(self):
        pred = _pred(_payload_with(B))
        assert pred.field_is_concrete("a")
        assert not pred.field_is_concrete("b")

    def test_field_direct_vars(self):
        pred = _pred(_payload_with(B))
        assert pred.field_direct_vars("b") == frozenset({B})
        assert pred.field_direct_vars("a") == frozenset()


class TestClosure:
    def test_closure_collects_direct_constraints(self):
        pred = _pred(_payload_with(B), [B < 100])
        vars_closed, constraints = pred.field_closure("b")
        assert B in vars_closed
        assert constraints == (B < 100,)

    def test_closure_is_transitive(self):
        # b is linked to x through one constraint; x's bound joins the closure.
        link = ast.eq(ast.extract(B, 7, 0), X)
        pred = _pred(_payload_with(B), [link, X < 5])
        _, constraints = pred.field_closure("b")
        assert set(constraints) == {link, X < 5}

    def test_unrelated_constraints_excluded(self):
        pred = _pred(_payload_with(B), [B < 100, X < 5])
        _, constraints = pred.field_closure("b")
        assert constraints == (B < 100,)

    def test_concrete_field_has_empty_closure(self):
        pred = _pred(_payload_with(B), [B < 100])
        vars_closed, constraints = pred.field_closure("a")
        assert not vars_closed
        assert constraints == ()


class TestIndependence:
    def test_isolated_field_is_independent(self):
        pred = _pred(_payload_with(B), [B < 100])
        assert pred.field_is_independent("b")

    def test_shared_variable_breaks_independence(self):
        # Field c carries a byte of b's variable: data-flow dependence.
        payload = (ast.bv_const(1, 8), ast.extract(B, 15, 8),
                   ast.extract(B, 7, 0), ast.extract(B, 7, 0))
        pred = _pred(payload)
        assert not pred.field_is_independent("b")
        assert not pred.field_is_independent("c")

    def test_constraint_coupling_breaks_independence(self):
        # a and c are coupled through a shared constraint chain.
        payload = (A, ast.bv_const(0, 8), ast.bv_const(0, 8), X)
        pred = _pred(payload, [ast.eq(A, X)])
        assert not pred.field_is_independent("a")
        assert not pred.field_is_independent("c")


class TestCombined:
    def test_combined_pins_server_bytes(self):
        pred = _pred(_payload_with(ast.bv_const(0xBEEF, 16)))
        server_msg = tuple(ast.bv_var(f"m[{i}]", 8) for i in range(4))
        result = check(pred.combined(server_msg))
        assert result.is_sat
        assert result.value(server_msg[1]) == 0xBE
        assert result.value(server_msg[2]) == 0xEF

    def test_combined_carries_path_constraints(self):
        pred = _pred(_payload_with(B), [ast.eq(B, ast.bv_const(7, 16))])
        server_msg = tuple(ast.bv_var(f"m[{i}]", 8) for i in range(4))
        query = pred.combined(server_msg) + (
            ast.ne(server_msg[2], ast.bv_const(7, 8)),)
        assert not check(query).is_sat


class TestPickleRoundTrip:
    """Shard workers receive the whole ``ClientPredicateSet`` by pickle;
    every system's predicate set must survive the trip byte-exactly
    (expressions re-intern on unpickle, the ``DifferentFrom`` matrix
    keeps its memo table and drops its row stacks)."""

    @staticmethod
    def _extracted(system: str):
        from repro.achilles import Achilles, AchillesConfig
        from repro.systems import raft, tpc

        pinned = {"raft": raft.SYSTEM, "tpc": tpc.SYSTEM}[system]
        config = AchillesConfig(layout=pinned.layout,
                                destination=pinned.destination)
        with Achilles(config) as achilles:
            return achilles.extract_clients(dict(pinned.clients))

    @pytest.mark.parametrize("system", ["raft", "tpc"])
    def test_predicate_set_round_trips(self, system):
        import pickle

        predicates = self._extracted(system)
        clone = pickle.loads(pickle.dumps(predicates))
        assert len(clone) == len(predicates)
        for original, copied in zip(predicates.predicates, clone.predicates):
            assert copied.index == original.index
            assert copied.client == original.client
            # Hash-consing re-interns on unpickle: structural equality is
            # identity, so == here means the expressions are the same nodes.
            assert copied.payload == original.payload
            assert copied.constraints == original.constraints
            assert copied.signature() == original.signature()
        assert [n.disjuncts for n in clone.negations] == \
            [n.disjuncts for n in predicates.negations]
        assert clone.different_from._table == predicates.different_from._table

    @pytest.mark.parametrize("system", ["raft", "tpc"])
    def test_different_from_drops_its_row_stacks(self, system):
        import itertools
        import pickle

        predicates = self._extracted(system)
        matrix = predicates.different_from
        indices = range(len(predicates))
        for i, field in itertools.product(indices,
                                          predicates.layout.field_names):
            matrix.droppable_with(i, field, indices)
        assert matrix._rows
        clone = pickle.loads(pickle.dumps(predicates)).different_from
        assert clone._rows == {}
        assert clone._solver.stats.queries == 0
        assert clone._table == matrix._table


class TestSignature:
    def test_same_structure_same_signature(self):
        first = _pred(_payload_with(B), [B < 100])
        second = _pred(_payload_with(B), [B < 100], index=5)
        assert first.signature() == second.signature()

    def test_constraint_order_irrelevant(self):
        first = _pred(_payload_with(B), [B < 100, B > 2])
        second = _pred(_payload_with(B), [B > 2, B < 100])
        assert first.signature() == second.signature()

    def test_different_payload_different_signature(self):
        first = _pred(_payload_with(ast.bv_const(1, 16)))
        second = _pred(_payload_with(ast.bv_const(2, 16)))
        assert first.signature() != second.signature()
