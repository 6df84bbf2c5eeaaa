"""Parameterized system templates: the one implementation of the 2PC,
Raft and Bracha broadcast programs and oracles.

Each template turns a parameter record (``TpcParams``, ``RaftParams``,
``BroadcastParams``) into a system (``tpc_system``, ``raft_system``,
``broadcast_system``): the message layout (field order, widths, an
optional must-be-zero reserved field), the protocol constants (kind
bytes, ids, terms, thresholds' anchors) and the seeded bug subset from
the system's bug menu derive the symbolic client/server programs
**and** the exact ground-truth oracle, so every system stays precisely
scorable.

Two kinds of parameters feed the same builders. The accuracy workloads
(:mod:`repro.systems.tpc`, :mod:`repro.systems.raft`,
:mod:`repro.systems.broadcast`) each pin one parameter set built from
their protocol constants, with every bug seeded; the scenario-matrix
corpus draws randomized ones from ``random.Random(variant_seed)``
(``draw_tpc_params`` and its siblings).

The node programs and oracles are callable dataclasses (not closures)
so a variant survives pickling: sharded runs ship the server program to
exploration worker processes.

Variant Trojan classes are plain strings (``"prepare:skip-wal"``,
``"ready:thin-quorum(cert=0x05)"``): JSON-able for the corpus report,
orderable for deterministic tables.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from repro.messages.concrete import decode_ints
from repro.messages.layout import Field, MessageLayout
from repro.messages.symbolic import MessageBuilder, field_expr
from repro.solver import ast
from repro.systems.scoring import SystemVariant


def _popcount(mask: int) -> int:
    return bin(mask).count("1")


def _field_order(rng: random.Random, names: tuple[str, ...],
                 pad_size: int) -> tuple[str, ...]:
    """Field order permutation plus an optional reserved field.

    The reserved ``pad`` field (when present) must be zero on the wire —
    both sides check it, so it perturbs offsets without perturbing the
    Trojan space.
    """
    order = list(names)
    rng.shuffle(order)
    if pad_size:
        order.insert(rng.randrange(len(order) + 1), "pad")
    return tuple(order)


def _const(layout: MessageLayout, name: str, value: int):
    return ast.bv_const(value, layout.view(name).bit_width)


def _pad_ok(ctx, layout: MessageLayout, msg, pad_size: int) -> bool:
    """Symbolic must-be-zero check for the reserved field (if any)."""
    if not pad_size:
        return True
    pad = field_expr(msg, layout.view("pad"))
    if ctx.branch(ast.eq(pad, _const(layout, "pad", 0))):
        return True
    ctx.reject("reserved-nonzero")
    return False


def _member(layout, msg, name: str, ids: tuple[int, ...]):
    sender = field_expr(msg, layout.view(name))
    return ast.any_of([ast.eq(sender, _const(layout, name, node))
                       for node in ids])


# -- two-phase-commit template ------------------------------------------------

SKIP_WAL = "prepare:skip-wal"
EMPTY_OP = "prepare:empty-op"


@dataclass
class TpcParams:
    """Drawn constants of one two-phase-commit variant."""

    field_order: tuple[str, ...]
    txid_size: int
    pad_size: int
    prepare: int
    commit: int
    abort: int
    flag_durable: int
    no_op: int
    bugs: tuple[str, ...]

    def build_layout(self) -> MessageLayout:
        sizes = {"kind": 1, "txid": self.txid_size, "flags": 1, "op": 1,
                 "pad": self.pad_size}
        return MessageLayout("tpc-variant",
                             [Field(n, sizes[n]) for n in self.field_order])


@dataclass
class TpcVariantClient:
    """One correct-coordinator program of a tpc variant."""

    params: TpcParams
    which: str  # "prepare" | "commit" | "abort"

    def __call__(self, ctx) -> None:
        p = self.params
        layout = p.build_layout()
        txid = ctx.fresh_bitvec("txid", layout.view("txid").bit_width)
        if not ctx.branch(ast.ne(txid, _const(layout, "txid", 0))):
            return  # transaction ids start at 1
        builder = MessageBuilder(layout)
        builder.set("txid", txid)
        if p.pad_size:
            builder.set("pad", 0)
        if self.which == "prepare":
            op = ctx.fresh_byte("op")
            if not ctx.branch(ast.ne(op, ast.bv_const(p.no_op, 8))):
                return  # nothing to prepare for the empty operation
            builder.set("kind", p.prepare)
            builder.set("flags", p.flag_durable)
            builder.set("op", op)
        else:
            builder.set("kind", p.commit if self.which == "commit"
                        else p.abort)
            builder.set("flags", 0)
            builder.set("op", p.no_op)
        ctx.send("participant", builder.wire())


@dataclass
class TpcVariantServer:
    """The participant ingress of a tpc variant (bug subset applied)."""

    params: TpcParams

    def __call__(self, ctx, msg) -> None:
        p = self.params
        layout = p.build_layout()
        field = lambda name: field_expr(msg, layout.view(name))
        if not _pad_ok(ctx, layout, msg, p.pad_size):
            return
        if ctx.branch(ast.eq(field("kind"), _const(layout, "kind",
                                                   p.prepare))):
            self._handle_prepare(ctx, layout, field)
            return
        for kind, verb in ((p.commit, "commit"), (p.abort, "abort")):
            if ctx.branch(ast.eq(field("kind"),
                                 _const(layout, "kind", kind))):
                self._handle_close(ctx, layout, field, verb)
                return
        ctx.reject("unknown-kind")

    def _handle_prepare(self, ctx, layout, field) -> None:
        p = self.params
        if not ctx.branch(ast.ne(field("txid"), _const(layout, "txid", 0))):
            ctx.reject("zero-txid")
            return
        if EMPTY_OP not in p.bugs:
            # The fixed participant validates the operation payload.
            if not ctx.branch(ast.ne(field("op"),
                                     ast.bv_const(p.no_op, 8))):
                ctx.reject("empty-op")
                return
        flags = field("flags")
        if ctx.branch(ast.eq(flags, ast.bv_const(p.flag_durable, 8))):
            ctx.accept("prepare:logged")
            return
        if SKIP_WAL in p.bugs and ctx.branch(ast.eq(flags,
                                                    ast.bv_const(0, 8))):
            # Acked without the write-ahead record — the seeded bug.
            ctx.accept("prepare:ack-without-wal")
            return
        ctx.reject("bad-flags")

    def _handle_close(self, ctx, layout, field, verb: str) -> None:
        p = self.params
        if not ctx.branch(ast.ne(field("txid"), _const(layout, "txid", 0))):
            ctx.reject(f"{verb}:zero-txid")
            return
        if not ctx.branch(ast.eq(field("flags"), ast.bv_const(0, 8))):
            ctx.reject(f"{verb}:bad-flags")
            return
        if not ctx.branch(ast.eq(field("op"), ast.bv_const(p.no_op, 8))):
            ctx.reject(f"{verb}:bad-padding")
            return
        if verb == "commit":
            # Over-approximate prepared-set lookup (§3.4).
            width = layout.view("txid").bit_width
            prepared = ctx.fresh_bitvec("state:prepared_txid", width)
            if not ctx.branch(ast.eq(field("txid"), prepared)):
                ctx.reject("commit:not-prepared")
                return
        ctx.accept(verb)


@dataclass
class TpcVariantOracle:
    """Exact accept/generable/classify oracles of a tpc variant."""

    params: TpcParams

    def _fields(self, message: bytes) -> dict | None:
        layout = self.params.build_layout()
        if len(message) != layout.total_size:
            return None
        fields = decode_ints(layout, message)
        if self.params.pad_size and fields["pad"] != 0:
            return None
        return fields

    def accepts(self, message: bytes) -> bool:
        p = self.params
        fields = self._fields(message)
        if fields is None or fields["txid"] == 0:
            return False
        if fields["kind"] == p.prepare:
            if EMPTY_OP not in p.bugs and fields["op"] == p.no_op:
                return False
            allowed = {p.flag_durable}
            if SKIP_WAL in p.bugs:
                allowed.add(0)
            return fields["flags"] in allowed
        if fields["kind"] in (p.commit, p.abort):
            return fields["flags"] == 0 and fields["op"] == p.no_op
        return False

    def generable(self, message: bytes) -> bool:
        p = self.params
        fields = self._fields(message)
        if fields is None or fields["txid"] == 0:
            return False
        if fields["kind"] == p.prepare:
            return fields["flags"] == p.flag_durable and \
                fields["op"] != p.no_op
        if fields["kind"] in (p.commit, p.abort):
            return fields["flags"] == 0 and fields["op"] == p.no_op
        return False

    def classify(self, message: bytes) -> str | None:
        if not self.accepts(message) or self.generable(message):
            return None
        fields = self._fields(message)
        return SKIP_WAL if fields["flags"] == 0 else EMPTY_OP


def draw_tpc_params(seed: int) -> TpcParams:
    """Draw one two-phase-commit parameter set from ``seed``."""
    rng = random.Random(seed)
    prepare, commit, abort = rng.sample(range(1, 256), 3)
    txid_size = rng.choice([1, 2])
    pad_size = rng.choice([0, 1, 2])
    flag_durable = rng.randrange(1, 256)
    no_op = rng.randrange(256)
    bugs = _draw_bugs(rng, (SKIP_WAL, EMPTY_OP))
    return TpcParams(
        field_order=_field_order(rng, ("kind", "txid", "flags", "op"),
                                 pad_size),
        txid_size=txid_size, pad_size=pad_size,
        prepare=prepare, commit=commit, abort=abort,
        flag_durable=flag_durable, no_op=no_op, bugs=bugs)


def tpc_system(params: TpcParams, seed: int | None = None) -> SystemVariant:
    """The two-phase-commit system ``params`` describe."""
    oracle = TpcVariantOracle(params)
    classes = tuple(bug for bug in (SKIP_WAL, EMPTY_OP)
                    if bug in params.bugs)
    return SystemVariant(
        template="tpc", seed=seed, layout=params.build_layout(),
        destination="participant",
        clients={which: TpcVariantClient(params, which)
                 for which in ("prepare", "commit", "abort")},
        server=TpcVariantServer(params),
        accepts=oracle.accepts, generable=oracle.generable,
        classify=oracle.classify, classes=classes, bugs=params.bugs,
        params={"field_order": list(params.field_order),
                "txid_size": params.txid_size,
                "pad_size": params.pad_size,
                "kinds": {"prepare": params.prepare,
                          "commit": params.commit, "abort": params.abort},
                "flag_durable": params.flag_durable, "no_op": params.no_op},
    )


# -- raft template ------------------------------------------------------------

STALE_APPEND = "stale-append"
VOTE_OFF_BY_ONE = "vote-off-by-one"


@dataclass
class RaftParams:
    """Drawn constants of one raft variant (history stub included)."""

    field_order: tuple[str, ...]
    pad_size: int
    msg_append: int
    msg_vote: int
    node_ids: tuple[int, ...]
    current_term: int
    log_terms: tuple[int, ...]
    term_leaders: tuple[int, ...]  # leader of term t at index t-1
    commit_index: int
    bugs: tuple[str, ...]

    @property
    def last_index(self) -> int:
        return len(self.log_terms) - 1

    @property
    def last_term(self) -> int:
        return self.log_terms[-1]

    @property
    def candidate_logs(self) -> tuple[tuple[int, int], ...]:
        return tuple((index, self.log_terms[index])
                     for index in range(self.commit_index,
                                        self.last_index + 1))

    def leader_of(self, term: int) -> int:
        return self.term_leaders[term - 1]

    def build_layout(self) -> MessageLayout:
        sizes = {"type": 1, "term": 1, "sender": 1, "idx": 1,
                 "logterm": 1, "cmd": 1, "pad": self.pad_size}
        return MessageLayout("raft-variant",
                             [Field(n, sizes[n]) for n in self.field_order])


@dataclass
class RaftVariantClient:
    """One correct-peer program of a raft variant."""

    params: RaftParams
    which: str  # "leader" | "candidate"

    def __call__(self, ctx) -> None:
        p = self.params
        layout = p.build_layout()
        builder = MessageBuilder(layout)
        if p.pad_size:
            builder.set("pad", 0)
        if self.which == "leader":
            prev_index = ctx.fresh_byte("prev_index")
            for index in range(p.last_index + 1):
                if ctx.branch(ast.eq(prev_index, ast.bv_const(index, 8))):
                    builder.set("type", p.msg_append)
                    builder.set("term", p.current_term)
                    builder.set("sender", p.leader_of(p.current_term))
                    builder.set("idx", prev_index)
                    builder.set("logterm", p.log_terms[index])
                    builder.set("cmd", ctx.fresh_byte("command"))
                    ctx.send("follower", builder.wire())
                    return
            return  # nextIndex never points past the log
        candidate_id = ctx.fresh_byte("candidate_id")
        member = ast.any_of([ast.eq(candidate_id, ast.bv_const(n, 8))
                             for n in p.node_ids])
        if not ctx.branch(member):
            return
        replicated = ctx.fresh_byte("state:replicated_to")
        for last_index, last_term in p.candidate_logs:
            if ctx.branch(ast.eq(replicated, ast.bv_const(last_index, 8))):
                builder.set("type", p.msg_vote)
                builder.set("term", p.current_term)
                builder.set("sender", candidate_id)
                builder.set("idx", replicated)
                builder.set("logterm", last_term)
                builder.set("cmd", 0)
                ctx.send("follower", builder.wire())
                return
        # A correct node's log sits between the committed prefix and the
        # leader's log: no message on this path.


@dataclass
class RaftVariantServer:
    """The follower ingress of a raft variant (bug subset applied)."""

    params: RaftParams

    def __call__(self, ctx, msg) -> None:
        p = self.params
        layout = p.build_layout()
        field = lambda name: field_expr(msg, layout.view(name))
        if not _pad_ok(ctx, layout, msg, p.pad_size):
            return
        if ctx.branch(ast.eq(field("type"),
                             ast.bv_const(p.msg_append, 8))):
            self._handle_append(ctx, field)
            return
        if ctx.branch(ast.eq(field("type"), ast.bv_const(p.msg_vote, 8))):
            self._handle_vote(ctx, field)
            return
        ctx.reject("unknown-type")

    def _handle_append(self, ctx, field) -> None:
        p = self.params
        terms = range(1, p.current_term + 1) if STALE_APPEND in p.bugs \
            else range(p.current_term, p.current_term + 1)
        term = None
        term_field = field("term")
        for value in terms:
            if ctx.branch(ast.eq(term_field, ast.bv_const(value, 8))):
                term = value
                break
        if term is None:
            ctx.reject("bad-term")
            return
        if not ctx.branch(ast.eq(field("sender"),
                                 ast.bv_const(p.leader_of(term), 8))):
            ctx.reject("not-the-leader")
            return
        prev = None
        idx = field("idx")
        for index in range(p.last_index + 1):
            if ctx.branch(ast.eq(idx, ast.bv_const(index, 8))):
                prev = index
                break
        if prev is None:
            ctx.reject("prev-beyond-log")
            return
        if not ctx.branch(ast.eq(field("logterm"),
                                 ast.bv_const(p.log_terms[prev], 8))):
            ctx.reject("prev-term-mismatch")
            return
        if prev < p.commit_index:
            ctx.label("truncates-committed")
        ctx.accept(f"append:term{term}:prev{prev}")

    def _handle_vote(self, ctx, field) -> None:
        p = self.params
        if not ctx.branch(ast.eq(field("term"),
                                 ast.bv_const(p.current_term, 8))):
            ctx.reject("vote-wrong-term")
            return
        member = ast.any_of([ast.eq(field("sender"), ast.bv_const(n, 8))
                             for n in p.node_ids])
        if not ctx.branch(member):
            ctx.reject("unknown-candidate")
            return
        if not ctx.branch(ast.eq(field("cmd"), ast.bv_const(0, 8))):
            ctx.reject("bad-vote-padding")
            return
        if not ctx.branch(ast.eq(field("logterm"),
                                 ast.bv_const(p.last_term, 8))):
            ctx.reject("log-not-up-to-date")
            return
        last = None
        idx = field("idx")
        for index in range(p.last_index + 1):
            if ctx.branch(ast.eq(idx, ast.bv_const(index, 8))):
                last = index
                break
        if last is None:
            ctx.reject("index-beyond-any-log")
            return
        slack = 1 if VOTE_OFF_BY_ONE in p.bugs else 0
        if last + slack >= p.last_index:
            ctx.accept(f"vote:grant:last{last}")
        else:
            ctx.reject("log-behind")


@dataclass
class RaftVariantOracle:
    """Exact accept/generable/classify oracles of a raft variant."""

    params: RaftParams

    def _fields(self, message: bytes) -> dict | None:
        layout = self.params.build_layout()
        if len(message) != layout.total_size:
            return None
        fields = decode_ints(layout, message)
        if self.params.pad_size and fields["pad"] != 0:
            return None
        return fields

    def accepts(self, message: bytes) -> bool:
        p = self.params
        fields = self._fields(message)
        if fields is None:
            return False
        if fields["type"] == p.msg_append:
            term = fields["term"]
            floor = 1 if STALE_APPEND in p.bugs else p.current_term
            if not floor <= term <= p.current_term:
                return False
            if fields["sender"] != p.leader_of(term):
                return False
            prev = fields["idx"]
            if not 0 <= prev <= p.last_index:
                return False
            return fields["logterm"] == p.log_terms[prev]
        if fields["type"] == p.msg_vote:
            if fields["term"] != p.current_term:
                return False
            if fields["sender"] not in p.node_ids:
                return False
            if fields["cmd"] != 0:
                return False
            if fields["logterm"] != p.last_term:
                return False
            last = fields["idx"]
            if not 0 <= last <= p.last_index:
                return False
            slack = 1 if VOTE_OFF_BY_ONE in p.bugs else 0
            return last + slack >= p.last_index
        return False

    def generable(self, message: bytes) -> bool:
        p = self.params
        fields = self._fields(message)
        if fields is None:
            return False
        if fields["type"] == p.msg_append:
            if fields["term"] != p.current_term:
                return False
            if fields["sender"] != p.leader_of(p.current_term):
                return False
            prev = fields["idx"]
            if not 0 <= prev <= p.last_index:
                return False
            return fields["logterm"] == p.log_terms[prev]
        if fields["type"] == p.msg_vote:
            if fields["term"] != p.current_term:
                return False
            if fields["sender"] not in p.node_ids:
                return False
            if fields["cmd"] != 0:
                return False
            return (fields["idx"], fields["logterm"]) in p.candidate_logs
        return False

    def classify(self, message: bytes) -> str | None:
        if not self.accepts(message) or self.generable(message):
            return None
        p = self.params
        fields = self._fields(message)
        if fields["type"] == p.msg_append:
            return _stale_append_class(fields["term"], fields["idx"])
        return _vote_class(fields["idx"])


def _stale_append_class(term: int, index: int) -> str:
    return f"{STALE_APPEND}(term={term}, index={index})"


def _vote_class(index: int) -> str:
    return f"{VOTE_OFF_BY_ONE}(index={index})"


def draw_raft_params(seed: int) -> RaftParams:
    """Draw one raft parameter set from ``seed``."""
    rng = random.Random(seed)
    msg_append, msg_vote = rng.sample(range(1, 256), 2)
    node_ids = tuple(sorted(rng.sample(range(1, 10), 3)))
    current_term = rng.randint(2, 4)
    last_index = rng.randint(2, 4)
    # Non-decreasing history with a strict final step, so the one-short
    # candidate log can never report the true last term: the vote
    # off-by-one class is real whenever that bug is injected.
    prefix = sorted(rng.choices(range(1, current_term), k=last_index - 1))
    final = rng.randint(prefix[-1] + 1, current_term)
    pad_size = rng.choice([0, 1])
    term_leaders = tuple(rng.choice(node_ids) for _ in range(current_term))
    commit_index = rng.randint(1, last_index)
    bugs = _draw_bugs(rng, (STALE_APPEND, VOTE_OFF_BY_ONE))
    return RaftParams(
        field_order=_field_order(
            rng, ("type", "term", "sender", "idx", "logterm", "cmd"),
            pad_size),
        pad_size=pad_size, msg_append=msg_append, msg_vote=msg_vote,
        node_ids=node_ids, current_term=current_term,
        log_terms=(0, *prefix, final), term_leaders=term_leaders,
        commit_index=commit_index, bugs=bugs)


def raft_system(params: RaftParams, seed: int | None = None,
                ) -> SystemVariant:
    """The raft system ``params`` describe."""
    oracle = RaftVariantOracle(params)
    classes = []
    if STALE_APPEND in params.bugs:
        classes.extend(_stale_append_class(term, index)
                       for term in range(1, params.current_term)
                       for index in range(params.last_index + 1))
    if VOTE_OFF_BY_ONE in params.bugs:
        classes.append(_vote_class(params.last_index - 1))
    return SystemVariant(
        template="raft", seed=seed, layout=params.build_layout(),
        destination="follower",
        clients={which: RaftVariantClient(params, which)
                 for which in ("leader", "candidate")},
        server=RaftVariantServer(params),
        accepts=oracle.accepts, generable=oracle.generable,
        classify=oracle.classify, classes=tuple(classes),
        bugs=params.bugs,
        params={"field_order": list(params.field_order),
                "pad_size": params.pad_size,
                "kinds": {"append": params.msg_append,
                          "vote": params.msg_vote},
                "node_ids": list(params.node_ids),
                "current_term": params.current_term,
                "log_terms": list(params.log_terms),
                "term_leaders": list(params.term_leaders),
                "commit_index": params.commit_index},
    )


# -- broadcast template -------------------------------------------------------

FORGED_SENDER = "send:forged-sender"
THIN_QUORUM = "thin-quorum"


@dataclass
class BroadcastParams:
    """Drawn constants of one broadcast variant."""

    field_order: tuple[str, ...]
    pad_size: int
    value_size: int
    msg_send: int
    msg_echo: int
    msg_ready: int
    node_ids: tuple[int, ...]  # 4 distinct bit positions in the cert byte
    broadcaster: int
    broadcast_value: int
    bugs: tuple[str, ...]

    @property
    def node_mask(self) -> int:
        return sum(1 << node for node in self.node_ids)

    def certs(self, minimum: int) -> tuple[int, ...]:
        """Member-only certificates with at least ``minimum`` bits set."""
        return tuple(mask for mask in range(256)
                     if not mask & ~self.node_mask
                     and _popcount(mask) >= minimum)

    @property
    def full_certs(self) -> tuple[int, ...]:
        return self.certs(3)  # 2f + 1 with f = 1

    @property
    def thin_certs(self) -> tuple[int, ...]:
        return tuple(mask for mask in self.certs(2)
                     if _popcount(mask) == 2)

    @property
    def accepted_certs(self) -> tuple[int, ...]:
        return self.certs(2) if THIN_QUORUM in self.bugs \
            else self.full_certs

    def build_layout(self) -> MessageLayout:
        sizes = {"kind": 1, "sender": 1, "value": self.value_size,
                 "cert": 1, "pad": self.pad_size}
        return MessageLayout("broadcast-variant",
                             [Field(n, sizes[n])
                              for n in self.field_order])


@dataclass
class BroadcastVariantClient:
    """One correct-peer program of a broadcast variant."""

    params: BroadcastParams
    which: str  # "sender" | "echoer" | "readier"

    def __call__(self, ctx) -> None:
        p = self.params
        layout = p.build_layout()
        builder = MessageBuilder(layout)
        builder.set("value", p.broadcast_value)
        if p.pad_size:
            builder.set("pad", 0)
        if self.which == "sender":
            builder.set("kind", p.msg_send)
            builder.set("sender", p.broadcaster)
            builder.set("cert", 0)
            ctx.send("node", builder.wire())
            return
        peer = ctx.fresh_byte("peer")
        member = ast.any_of([ast.eq(peer, ast.bv_const(n, 8))
                             for n in p.node_ids])
        if not ctx.branch(member):
            return
        builder.set("sender", peer)
        if self.which == "echoer":
            builder.set("kind", p.msg_echo)
            builder.set("cert", 0)
            ctx.send("node", builder.wire())
            return
        cert = ctx.fresh_byte("state:echo_certificate")
        for mask in p.full_certs:
            if ctx.branch(ast.eq(cert, ast.bv_const(mask, 8))):
                builder.set("kind", p.msg_ready)
                builder.set("cert", cert)
                ctx.send("node", builder.wire())
                return
        # A correct peer never asserts READY below the echo quorum.


@dataclass
class BroadcastVariantServer:
    """The node ingress of a broadcast variant (bug subset applied)."""

    params: BroadcastParams

    def __call__(self, ctx, msg) -> None:
        p = self.params
        layout = p.build_layout()
        field = lambda name: field_expr(msg, layout.view(name))
        if not _pad_ok(ctx, layout, msg, p.pad_size):
            return
        if ctx.branch(ast.eq(field("kind"), ast.bv_const(p.msg_send, 8))):
            self._handle_send(ctx, layout, field)
            return
        if ctx.branch(ast.eq(field("kind"), ast.bv_const(p.msg_echo, 8))):
            self._handle_echo(ctx, layout, field)
            return
        if ctx.branch(ast.eq(field("kind"),
                             ast.bv_const(p.msg_ready, 8))):
            self._handle_ready(ctx, layout, field)
            return
        ctx.reject("unknown-kind")

    def _checks(self, ctx, layout, field, verb: str,
                sender_ids: tuple[int, ...]) -> bool:
        p = self.params
        member = ast.any_of([ast.eq(field("sender"), ast.bv_const(n, 8))
                             for n in sender_ids])
        if not ctx.branch(member):
            ctx.reject(f"{verb}:bad-sender")
            return False
        if not ctx.branch(ast.eq(field("value"),
                                 _const(layout, "value",
                                        p.broadcast_value))):
            ctx.reject(f"{verb}:value-mismatch")
            return False
        return True

    def _handle_send(self, ctx, layout, field) -> None:
        p = self.params
        senders = p.node_ids if FORGED_SENDER in p.bugs \
            else (p.broadcaster,)
        if not self._checks(ctx, layout, field, "send", senders):
            return
        if not ctx.branch(ast.eq(field("cert"), ast.bv_const(0, 8))):
            ctx.reject("send:unexpected-certificate")
            return
        ctx.accept("send:echo")

    def _handle_echo(self, ctx, layout, field) -> None:
        if not self._checks(ctx, layout, field, "echo",
                            self.params.node_ids):
            return
        if not ctx.branch(ast.eq(field("cert"), ast.bv_const(0, 8))):
            ctx.reject("echo:unexpected-certificate")
            return
        ctx.accept("echo:counted")

    def _handle_ready(self, ctx, layout, field) -> None:
        p = self.params
        if not self._checks(ctx, layout, field, "ready", p.node_ids):
            return
        cert = field("cert")
        for mask in p.accepted_certs:
            if ctx.branch(ast.eq(cert, ast.bv_const(mask, 8))):
                if _popcount(mask) < 3:
                    ctx.label("thin-certificate")
                ctx.accept(f"ready:cert-{mask:#04x}")
                return
        ctx.reject("ready:bad-certificate")


@dataclass
class BroadcastVariantOracle:
    """Exact accept/generable/classify oracles of a broadcast variant."""

    params: BroadcastParams

    def _fields(self, message: bytes) -> dict | None:
        layout = self.params.build_layout()
        if len(message) != layout.total_size:
            return None
        fields = decode_ints(layout, message)
        if self.params.pad_size and fields["pad"] != 0:
            return None
        if fields["value"] != self.params.broadcast_value:
            return None
        if fields["sender"] not in self.params.node_ids:
            return None
        return fields

    def accepts(self, message: bytes) -> bool:
        p = self.params
        fields = self._fields(message)
        if fields is None:
            return False
        if fields["kind"] == p.msg_send:
            if FORGED_SENDER not in p.bugs and \
                    fields["sender"] != p.broadcaster:
                return False
            return fields["cert"] == 0
        if fields["kind"] == p.msg_echo:
            return fields["cert"] == 0
        if fields["kind"] == p.msg_ready:
            return fields["cert"] in p.accepted_certs
        return False

    def generable(self, message: bytes) -> bool:
        p = self.params
        fields = self._fields(message)
        if fields is None:
            return False
        if fields["kind"] == p.msg_send:
            return fields["sender"] == p.broadcaster and \
                fields["cert"] == 0
        if fields["kind"] == p.msg_echo:
            return fields["cert"] == 0
        if fields["kind"] == p.msg_ready:
            return fields["cert"] in p.full_certs
        return False

    def classify(self, message: bytes) -> str | None:
        if not self.accepts(message) or self.generable(message):
            return None
        fields = self._fields(message)
        if fields["kind"] == self.params.msg_send:
            return FORGED_SENDER
        return _thin_quorum_class(fields["cert"])


def _thin_quorum_class(cert: int) -> str:
    return f"ready:{THIN_QUORUM}(cert={cert:#04x})"


def draw_broadcast_params(seed: int) -> BroadcastParams:
    """Draw one broadcast parameter set from ``seed``."""
    rng = random.Random(seed)
    msg_send, msg_echo, msg_ready = rng.sample(range(1, 256), 3)
    value_size = rng.choice([1, 2])
    pad_size = rng.choice([0, 1])
    node_ids = tuple(sorted(rng.sample(range(8), 4)))
    broadcast_value = rng.randrange(1 << (8 * value_size))
    bugs = _draw_bugs(rng, (FORGED_SENDER, THIN_QUORUM))
    broadcaster = rng.choice(node_ids)
    return BroadcastParams(
        field_order=_field_order(rng, ("kind", "sender", "value", "cert"),
                                 pad_size),
        pad_size=pad_size, value_size=value_size,
        msg_send=msg_send, msg_echo=msg_echo, msg_ready=msg_ready,
        node_ids=node_ids, broadcaster=broadcaster,
        broadcast_value=broadcast_value, bugs=bugs)


def broadcast_system(params: BroadcastParams, seed: int | None = None,
                     ) -> SystemVariant:
    """The broadcast system ``params`` describe."""
    oracle = BroadcastVariantOracle(params)
    classes = []
    if FORGED_SENDER in params.bugs:
        classes.append(FORGED_SENDER)
    if THIN_QUORUM in params.bugs:
        classes.extend(_thin_quorum_class(cert)
                       for cert in params.thin_certs)
    return SystemVariant(
        template="broadcast", seed=seed, layout=params.build_layout(),
        destination="node",
        clients={which: BroadcastVariantClient(params, which)
                 for which in ("sender", "echoer", "readier")},
        server=BroadcastVariantServer(params),
        accepts=oracle.accepts, generable=oracle.generable,
        classify=oracle.classify, classes=tuple(classes),
        bugs=params.bugs,
        params={"field_order": list(params.field_order),
                "pad_size": params.pad_size,
                "value_size": params.value_size,
                "kinds": {"send": params.msg_send, "echo": params.msg_echo,
                          "ready": params.msg_ready},
                "node_ids": list(params.node_ids),
                "broadcaster": params.broadcaster,
                "broadcast_value": params.broadcast_value},
    )


def _draw_bugs(rng: random.Random,
               menu: tuple[str, ...]) -> tuple[str, ...]:
    """A non-empty subset of the bug menu (empty would leave nothing to
    score: recall over zero seeded classes is undefined)."""
    subsets = [subset for bits in range(1, 1 << len(menu))
               for subset in [tuple(bug for position, bug in enumerate(menu)
                                    if bits >> position & 1)]]
    return subsets[rng.randrange(len(subsets))]


#: Template registry: name -> (``draw(variant_seed) -> params``,
#: ``system(params, variant_seed) -> SystemVariant``).
TEMPLATES: dict[str, tuple[Callable, Callable]] = {
    "tpc": (draw_tpc_params, tpc_system),
    "raft": (draw_raft_params, raft_system),
    "broadcast": (draw_broadcast_params, broadcast_system),
}
