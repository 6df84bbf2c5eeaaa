"""The FSP template: one builder for the programs and the oracle.

:class:`FspParams` holds what varies between FSP configurations: the
path bound ``path_space`` (the size of ``buf``: paths are up to
``path_space - 1`` characters plus the NUL terminator), the command
codes the server dispatches on, the utilities that have a client, the
printable range, the annotation stubs (§6.1), and the client mode —
literal (§6.2 accuracy workload) or globbing against a directory
listing (§6.3 wildcard workload). :func:`fsp_system` derives the
symbolic clients and server **and** the exact ground-truth oracle from
the same record, so every rung of the path bound stays exactly
scorable. :mod:`repro.systems.fsp` pins ``FSP_PARAMS`` (path bound 5).

The server reproduces the two path-parsing bugs Achilles exposed in FSP
2.8.1b26 (§6.3). Its scan stops at the first NUL without checking that
it sits where ``bb_len`` says (**mismatched string lengths**: the bytes
in between are an unvalidated hidden payload), and it accepts every
printable path character, ``*`` and ``?`` included (**the wildcard
character**: globbing clients expand wildcards, with no escape syntax,
so no correct client sends one).

Trojan classes are strings: ``fcat(L=3, t=2)`` is an fcat command whose
``bb_len`` reports 3 while the path ends at 2. With globbing clients,
``fcat(L=3, wildcard)`` is one whose full-length path holds a wildcard.
A command no utility sends is a Trojan whatever its path, so its
classes run up to ``t == L``.

The programs and oracle are callable dataclasses, not closures, so a
system survives pickling: sharded runs ship the server program to
exploration worker processes.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import cached_property
from typing import Sequence

from repro.achilles.mask import FieldMask
from repro.fsys.glob import expand, has_wildcard
from repro.messages.concrete import decode_ints
from repro.messages.layout import Field, MessageLayout
from repro.messages.symbolic import MessageBuilder, field_bytes, field_expr
from repro.solver import ast
from repro.solver.ast import Expr
from repro.systems.scoring import SystemVariant

#: Glob metacharacters (no escape syntax exists, §6.3).
WILDCARD_STAR = ord("*")
WILDCARD_QUERY = ord("?")


@dataclass(frozen=True)
class FspParams:
    """The constants one FSP system is built from.

    Attributes:
        path_space: size of the ``buf`` field; paths are shorter by the
            terminator.
        commands: utility name -> FSP command code, every command the
            server accepts.
        utilities: the utilities that have a client, in client order.
        printable: inclusive byte range the server accepts in a path.
        stubs: annotation constants (§6.1) the clients write and the
            server checks, bypassing checksum and session-key logic.
        globbing: clients expand wildcards before sending (§6.3 mode).
        listing: directory entries the globbing clients expand against
            (the real utilities fetch it from the server first).
    """

    path_space: int
    commands: dict[str, int]
    utilities: tuple[str, ...]
    printable: tuple[int, int]
    stubs: dict[str, int]
    globbing: bool = False
    listing: tuple[str, ...] = ()

    @cached_property
    def layout(self) -> MessageLayout:
        """``cmd | sum | bb_key | bb_seq | bb_len | bb_pos | buf``."""
        return MessageLayout("fsp", [
            Field("cmd", 1),
            Field("sum", 1),
            Field("bb_key", 2),
            Field("bb_seq", 2),
            Field("bb_len", 2),
            Field("bb_pos", 4),
            Field("buf", self.path_space),
        ])

    def is_printable(self, byte: int) -> bool:
        """Server-side path character validation."""
        return self.printable[0] <= byte <= self.printable[1]


@dataclass
class FspClient:
    """One client utility: reads a command-line path argument (symbolic
    bytes), parses and validates it, and sends its command.

    ``bb_len`` always carries the *true* path length — the invariant
    whose absence on the server side is the mismatched-length Trojan.
    """

    params: FspParams
    utility: str

    def __call__(self, ctx) -> None:
        p = self.params
        argument = ctx.fresh_bytes("arg", p.path_space)
        path_chars = self._parse_path(ctx, argument)
        if path_chars is None:
            return  # usage error: empty, unterminated, or unprintable
        if p.globbing and self._contains_wildcard(ctx, path_chars):
            # Wildcards never reach the wire: only their expansions do,
            # as concrete buffers (path, NUL, zero padding).
            for concrete_path in self._expand_wildcards(ctx, path_chars):
                raw = concrete_path.encode("ascii")
                self._send(ctx, raw.ljust(p.path_space, b"\x00"), len(raw))
            return
        # On this path the characters are wildcard-free (in globbing mode
        # the branch above recorded that constraint): send the path as-is.
        self._send(ctx, argument, len(path_chars))

    def _parse_path(self, ctx, argument: Sequence[Expr]) -> list[Expr] | None:
        """Scan the argument for a valid NUL-terminated path: one path per
        true length 1..path_space-1, None on the reject paths."""
        low, high = self.params.printable
        chars: list[Expr] = []
        for position in range(self.params.path_space):
            byte = argument[position]
            if ctx.branch(ast.eq(byte, ast.bv_const(0, 8))):
                if position == 0:
                    return None  # empty path: usage error
                return chars
            in_printable = ast.and_(ast.uge(byte, ast.bv_const(low, 8)),
                                    ast.ule(byte, ast.bv_const(high, 8)))
            if not ctx.branch(in_printable):
                return None  # unprintable character: refuse to send
            chars.append(byte)
        return None  # no terminator within the buffer: path too long

    @staticmethod
    def _contains_wildcard(ctx, path_chars: list[Expr]) -> bool:
        """Fork on wildcard presence. The False side constrains every
        character away from ``*`` and ``?``: that constraint entering
        ``PC`` is why wildcard paths end up in ``PS \\ PC``."""
        has_meta = ast.any_of([
            ast.or_(ast.eq(c, ast.bv_const(WILDCARD_STAR, 8)),
                    ast.eq(c, ast.bv_const(WILDCARD_QUERY, 8)))
            for c in path_chars])
        return ctx.branch(has_meta)

    def _expand_wildcards(self, ctx, path_chars: list[Expr]) -> list[str]:
        """Client-side globbing. The matcher needs a concrete pattern, so
        each character is concretized (one feasible assignment per path);
        there is no way to escape a wildcard."""
        pattern = "".join(chr(ctx.concretize(c)) for c in path_chars)
        return [name for name in expand(pattern, self.params.listing)
                if not has_wildcard(name)
                and 0 < len(name) < self.params.path_space]

    def _send(self, ctx, buffer: Sequence[Expr | int], length: int) -> None:
        p = self.params
        builder = MessageBuilder(p.layout)
        builder.set("cmd", p.commands[self.utility])
        for field, stub in p.stubs.items():
            builder.set(field, stub)
        builder.set("bb_len", length)
        builder.set_bytes("buf", list(buffer))
        ctx.send("server", builder.wire())


@dataclass
class FspServer:
    """One event-loop iteration of the server: validate the session
    fields (annotation stubs, §6.1), dispatch on the command, parse the
    path, perform the action. The accept marker sits where the server
    invokes the filesystem action, as in the paper (§6.1)."""

    params: FspParams

    def __call__(self, ctx, msg: tuple[Expr, ...]) -> None:
        layout = self.params.layout
        if not self._session_fields_valid(ctx, msg):
            ctx.reject("bad-session-fields")
            return

        cmd = field_expr(msg, layout.view("cmd"))
        command = self._dispatch(ctx, cmd)
        if command is None:
            ctx.reject("unknown-command")
            return

        bb_len = field_expr(msg, layout.view("bb_len"))
        length = self._reported_length(ctx, bb_len)
        if length is None:
            ctx.reject("bad-length")
            return

        buf = field_bytes(msg, layout.view("buf"))
        if not self._path_parses(ctx, buf, length):
            ctx.reject("bad-path")
            return

        # The command is valid: perform the filesystem action and reply.
        ctx.accept(f"action:0x{command:02x}")

    def _session_fields_valid(self, ctx, msg: tuple[Expr, ...]) -> bool:
        """Stubbed checksum/key/sequence/position checks."""
        layout = self.params.layout
        for field, stub in self.params.stubs.items():
            view = layout.view(field)
            expected = ast.bv_const(stub, view.bit_width)
            if not ctx.branch(ast.eq(field_expr(msg, view), expected)):
                return False
        return True

    def _dispatch(self, ctx, cmd: Expr) -> int | None:
        """The command switch; returns the matched code or None."""
        for code in sorted(self.params.commands.values()):
            if ctx.branch(ast.eq(cmd, ast.bv_const(code, 8))):
                return code
        return None

    def _reported_length(self, ctx, bb_len: Expr) -> int | None:
        """Branch over the valid reported lengths 1..path_space-1: the
        terminator must fit in ``buf``, and empty paths are rejected."""
        for length in range(1, self.params.path_space):
            if ctx.branch(ast.eq(bb_len, ast.bv_const(length, 16))):
                return length
        return None

    def _path_parses(self, ctx, buf: tuple[Expr, ...], length: int) -> bool:
        """The vulnerable path scan: walk up to the reported length,
        stopping at the first NUL; characters before it must be
        printable. The terminator is required at ``buf[length]``, but
        nothing verifies the first NUL *is* that terminator."""
        low, high = self.params.printable
        for position in range(length):
            byte = buf[position]
            if ctx.branch(ast.eq(byte, ast.bv_const(0, 8))):
                break  # first NUL ends the path; bytes after it are never checked
            printable = ast.and_(ast.uge(byte, ast.bv_const(low, 8)),
                                 ast.ule(byte, ast.bv_const(high, 8)))
            if not ctx.branch(printable):
                return False
        # Consistency check against the header — at the reported position
        # only; an earlier NUL sails through.
        return ctx.branch(ast.eq(buf[length], ast.bv_const(0, 8)))


@dataclass
class FspOracle:
    """Exact accept/generable/classify oracles of one FSP system."""

    params: FspParams

    def parse(self, message: bytes) -> tuple[int, int, bytes] | None:
        """``(cmd, bb_len, path)`` of a message the server accepts, None
        for one it rejects: the server's accept predicate ``PS``."""
        p = self.params
        if len(message) != p.layout.total_size:
            return None
        fields = decode_ints(p.layout, message)
        if fields["cmd"] not in p.commands.values():
            return None
        for name, stub in p.stubs.items():
            if fields[name] != stub:
                return None
        length = fields["bb_len"]
        if not 1 <= length < p.path_space:
            return None
        view = p.layout.view("buf")
        buf = message[view.offset:view.end]
        scanned = 0
        while scanned < length and buf[scanned] != 0:
            if not p.is_printable(buf[scanned]):
                return None
            scanned += 1
        if buf[length] != 0:
            return None
        return fields["cmd"], length, buf[:scanned]

    def accepts(self, message: bytes) -> bool:
        return self.parse(message) is not None

    def generable(self, message: bytes) -> bool:
        """The client predicate ``PC``."""
        parsed = self.parse(message)
        return parsed is not None and self._sent(*parsed)

    def _sent(self, command: int, length: int, path: bytes) -> bool:
        """Whether a correct client sends this accepted message: a
        utility that has a client, ``bb_len`` equal to the true path
        length, and no wildcard when the clients glob."""
        p = self.params
        return (command in {p.commands[name] for name in p.utilities}
                and len(path) == length
                and not (p.globbing and has_wildcard(path.decode("latin-1"))))

    def classify(self, message: bytes) -> str | None:
        """The Trojan class of an accepted, ungenerable message; None for
        any other message."""
        parsed = self.parse(message)
        if parsed is None or self._sent(*parsed):
            return None
        command, length, path = parsed
        name = next(name for name, code in self.params.commands.items()
                    if code == command)
        if len(path) < length or name not in self.params.utilities:
            return f"{name}(L={length}, t={len(path)})"
        return f"{name}(L={length}, wildcard)"


def _classes(params: FspParams) -> tuple[str, ...]:
    """The class universe in (command code, L, t) order."""
    classes = []
    for name, _ in sorted(params.commands.items(), key=lambda item: item[1]):
        sent = name in params.utilities
        for length in range(1, params.path_space):
            # Without a client, the full-length path is a Trojan too.
            true_lengths = range(length) if sent else range(length + 1)
            classes.extend(f"{name}(L={length}, t={t})"
                           for t in true_lengths)
            if sent and params.globbing:
                classes.append(f"{name}(L={length}, wildcard)")
    return tuple(classes)


def fsp_system(params: FspParams) -> SystemVariant:
    """The FSP system ``params`` describe, hunted with the session stubs
    masked (§6.1: they are annotations, not analyzed)."""
    oracle = FspOracle(params)
    return SystemVariant(
        template="fsp", seed=None, layout=params.layout,
        destination="server",
        clients={name: FspClient(params, name) for name in params.utilities},
        server=FspServer(params),
        accepts=oracle.accepts, generable=oracle.generable,
        classify=oracle.classify, classes=_classes(params),
        bugs=("mismatched-length", "wildcard"),
        params=asdict(params),
        mask=FieldMask.hide(*params.stubs))
