"""FSP — the File Service Protocol under test (§6.1-§6.3).

FSP is a UDP file-transfer protocol: client utilities emulate UNIX core
utilities (``frm``, ``fls``, ``fmkdir``, …), parse a command-line path,
expand wildcards client-side, and send a command message; the server
performs the action on its filesystem.

Two Trojan classes live here:

* **Mismatched string lengths** — the server accepts commands whose file
  path contains a NUL before the length reported in ``bb_len``; correct
  clients always report the true length (the §6.2 accuracy workload:
  ``(1+2+3+4) × 8 utilities = 80`` Trojan classes at path bound 5);
* **The wildcard character** — clients always glob-expand ``*`` before
  sending (no escape exists), the server treats ``*`` as a regular
  character, so paths containing ``*`` are Trojans with messy deletion
  semantics (§6.3).

:data:`SYSTEM` is :func:`~repro.systems.fsp.template.fsp_system` pinned
to :data:`FSP_PARAMS`: the literal-mode clients, the server, the oracles
(``accepts``/``generable``/``classify``), the 80-class universe and the
session-stub mask. The §6.3 wildcard system is the same builder on
``replace(FSP_PARAMS, globbing=True, listing=...)``, and any other path
bound on ``replace(FSP_PARAMS, path_space=N)``. The concrete nodes (for
the simulated network) read the same parameters, so findings transfer
between the two.
"""

from repro.systems.fsp.protocol import (
    COMMANDS,
    FSP_LAYOUT,
    FSP_PARAMS,
    PATH_SPACE,
    PRINTABLE_MAX,
    PRINTABLE_MIN,
    STUBS,
)
from repro.systems.fsp.template import FspParams, fsp_system
from repro.systems.fsp.nodes import (
    FspServerNode,
    client_command,
    expand_argument,
    rename_command,
)
from repro.systems.scoring import bound_ground_truth

#: The pinned FSP system: 80 mismatched-length classes at path bound 5.
SYSTEM = fsp_system(FSP_PARAMS)

#: Scores witnesses against :data:`SYSTEM`'s oracle.
GroundTruth = bound_ground_truth(SYSTEM)

#: The server program every FSP hunt explores.
fsp_server = SYSTEM.server


def literal_clients(commands: dict[str, int] | None = None) -> dict:
    """The literal-mode clients of ``commands`` (a subset of
    :data:`COMMANDS`; all eight by default), against the full server."""
    return {name: SYSTEM.clients[name] for name in commands or COMMANDS}


def all_trojan_classes() -> list[str]:
    """The 80 Trojan classes of :data:`SYSTEM`, in (command, L, t) order."""
    return list(SYSTEM.classes)


__all__ = [
    "COMMANDS",
    "FSP_LAYOUT",
    "FSP_PARAMS",
    "FspParams",
    "FspServerNode",
    "GroundTruth",
    "PATH_SPACE",
    "PRINTABLE_MAX",
    "PRINTABLE_MIN",
    "STUBS",
    "SYSTEM",
    "all_trojan_classes",
    "client_command",
    "expand_argument",
    "fsp_server",
    "fsp_system",
    "literal_clients",
    "rename_command",
]
