"""Concrete FSP nodes for the simulated deployment (impact experiments).

:class:`FspServerNode` executes accepted commands against a
:class:`~repro.fsys.memfs.MemFS`; :func:`client_command` reproduces the
client utilities' message assembly — including client-side globbing with
no escape character — so the §6.3 scenarios (``mv file file*``,
``rm file*``) replay exactly.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import FileSystemError
from repro.fsys.glob import glob_match, has_wildcard
from repro.fsys.memfs import MemFS
from repro.messages.concrete import decode_ints, encode
from repro.net.network import Network, Node
from repro.systems.fsp.protocol import CC_RENAME, FSP_LAYOUT, FSP_PARAMS

#: Reply codes.
REPLY_OK = 0x01
REPLY_ERR = 0x02


class FspServerNode(Node):
    """Concrete FSP server over an in-memory filesystem.

    The ingress validation matches the symbolic model byte for byte (same
    two bugs); accepted commands act on :attr:`fs` under :attr:`root`.
    """

    def __init__(self, name: str = "server", fs: MemFS | None = None,
                 root: str = "/srv"):
        super().__init__(name)
        self.fs = fs or _default_fs(root)
        self.root = root
        self.accepted = 0
        self.rejected = 0

    def handle(self, source: str, payload: bytes, network: Network) -> None:
        fields = decode_ints(FSP_LAYOUT, payload) \
            if len(payload) == FSP_LAYOUT.total_size else None
        if fields is not None and fields["cmd"] == CC_RENAME:
            parsed = self._validate_rename(payload)
            if parsed is None:
                self.rejected += 1
                return
            self.accepted += 1
            ok = self._rename(*parsed)
        else:
            path = self._validate(payload)
            if path is None:
                self.rejected += 1
                return
            self.accepted += 1
            ok = self._execute(fields["cmd"], path)
        network.send(self.name, source,
                     bytes([REPLY_OK if ok else REPLY_ERR]))

    # -- ingress -----------------------------------------------------------------

    def _validate(self, payload: bytes) -> str | None:
        """The vulnerable ingress: returns the parsed path or None.

        Mirrors :class:`repro.systems.fsp.template.FspServer`: first-NUL
        scan, printable characters, terminator at ``bb_len`` — never
        cross-checked against the scan.
        """
        buf = self._common_checks(payload,
                                  FSP_PARAMS.commands.values())
        if buf is None:
            return None
        length = decode_ints(FSP_LAYOUT, payload)["bb_len"]
        scanned = 0
        while scanned < length and buf[scanned] != 0:
            if not FSP_PARAMS.is_printable(buf[scanned]):
                return None
            scanned += 1
        if buf[length] != 0:
            return None
        return buf[:scanned].decode("latin-1")

    def _validate_rename(self, payload: bytes) -> tuple[str, str] | None:
        """RENAME ingress: ``buf`` packs ``src NUL dst`` with the
        terminator of the *pair* at ``bb_len``."""
        buf = self._common_checks(payload, (CC_RENAME,))
        if buf is None:
            return None
        length = decode_ints(FSP_LAYOUT, payload)["bb_len"]
        if buf[length] != 0:
            return None
        packed = buf[:length]
        source, _, target = packed.partition(b"\x00")
        if not source or not target:
            return None
        if not all(FSP_PARAMS.is_printable(b) for b in source + target):
            return None
        return source.decode("latin-1"), target.decode("latin-1")

    def _common_checks(self, payload: bytes,
                       commands) -> bytes | None:
        """Size, command and stub validation shared by all ingress paths."""
        if len(payload) != FSP_LAYOUT.total_size:
            return None
        fields = decode_ints(FSP_LAYOUT, payload)
        if fields["cmd"] not in commands:
            return None
        for name, stub in FSP_PARAMS.stubs.items():
            if fields[name] != stub:
                return None
        if not 1 <= fields["bb_len"] < FSP_PARAMS.path_space:
            return None
        view = FSP_LAYOUT.view("buf")
        return payload[view.offset:view.end]

    # -- actions ------------------------------------------------------------------

    def _execute(self, command: int, path: str) -> bool:
        """Perform the filesystem action; RENAME packs ``src\\0dst``."""
        full = f"{self.root}/{path}"
        codes = FSP_PARAMS.commands
        try:
            if command == codes["fls"]:
                self.fs.listdir(full)
            elif command in (codes["fcat"], codes["fstat"], codes["fgetpro"]):
                if not self.fs.exists(full):
                    return False
            elif command == codes["frm"]:
                self.fs.delete(full)
            elif command == codes["frmdir"]:
                self.fs.delete(full)
            elif command == codes["fmkdir"]:
                self.fs.mkdir(full)
            elif command == codes["fgrab"]:
                self.fs.read_file(full)
                self.fs.delete(full)
            else:
                return False
        except FileSystemError:
            return False
        return True

    def _rename(self, source: str, target: str) -> bool:
        try:
            self.fs.rename(f"{self.root}/{source}", f"{self.root}/{target}")
        except FileSystemError:
            return False
        return True


def _default_fs(root: str) -> MemFS:
    fs = MemFS()
    fs.mkdir(root)
    return fs


def expand_argument(argument: str, listing: Sequence[str]) -> list[str]:
    """Client-side wildcard expansion (no escape character, §6.3).

    Matched directory entries pass through verbatim — including names
    that themselves contain ``*`` (how ``rm file*`` reaches the literal
    ``file*`` file *and* its innocent siblings). A pattern matching
    nothing expands to nothing.
    """
    if has_wildcard(argument):
        return [name for name in listing if glob_match(argument, name)]
    return [argument]


def client_command(utility: str, path: str) -> bytes:
    """Assemble the wire message a correct utility sends for ``path``.

    Raises ValueError for arguments a correct client refuses: empty or
    over-long paths, unprintable characters. Globbing happens *before*
    this step (see :func:`expand_argument`).
    """
    if utility not in FSP_PARAMS.commands:
        raise ValueError(f"unknown utility {utility!r}")
    raw = path.encode("ascii")
    if not all(FSP_PARAMS.is_printable(b) for b in raw):
        raise ValueError("correct clients refuse unprintable path characters")
    return _assemble(FSP_PARAMS.commands[utility], raw)


def rename_command(source: str, target: str) -> bytes:
    """The ``fmv`` utility's RENAME message: ``src NUL dst``.

    The source was globbed by the caller; the target is never globbed
    (FSP behaviour, §6.3) — which is how ``file*`` gets created.
    """
    packed = source.encode("ascii") + b"\x00" + target.encode("ascii")
    return _assemble(CC_RENAME, packed)


def _assemble(command: int, raw_path: bytes) -> bytes:
    space = FSP_PARAMS.path_space
    if not 0 < len(raw_path) < space:
        raise ValueError(f"path must be 1..{space - 1} bytes")
    buf = raw_path + b"\x00" * (space - len(raw_path))
    return encode(FSP_LAYOUT, {"cmd": command, **FSP_PARAMS.stubs,
                               "bb_len": len(raw_path), "buf": buf})
