"""FSP wire protocol constants and the pinned parameter set (§6.1).

The command message carries::

    cmd(1) | sum(1) | bb_key(2) | bb_seq(2) | bb_len(2) | bb_pos(4) | buf(5)

``buf`` holds the NUL-terminated file path; the evaluation bounds paths to
length < 5 (so ``buf`` is 5 bytes: up to 4 path characters plus the
terminator), exactly the bound the paper uses to let symbolic execution
complete (§6.2). Other rungs of the bound are
``replace(FSP_PARAMS, path_space=N)``.

Following the paper, the ``sum`` checksum and the ``bb_key``/``bb_seq``/
``bb_pos`` session fields are *approximated by annotations*: clients write
a predefined constant and the server checks for that constant (§6.1). The
:data:`STUBS` table records those constants for both sides.
"""

from __future__ import annotations

from repro.systems.fsp.template import FspParams

#: The eight client utilities with a single file-path argument (§6.2),
#: mapped to their FSP command codes.
COMMANDS: dict[str, int] = {
    "fls": 0x41,      # CC_GET_DIR: directory listing
    "fcat": 0x42,     # CC_GET_FILE: read a file
    "frm": 0x45,      # CC_DEL_FILE: delete a file
    "frmdir": 0x46,   # CC_DEL_DIR: delete a directory
    "fgetpro": 0x47,  # CC_GET_PRO: read directory protection
    "fmkdir": 0x49,   # CC_MAKE_DIR: create a directory
    "fgrab": 0x4B,    # CC_GRAB_FILE: read-and-delete a file
    "fstat": 0x4D,    # CC_STAT: stat a path
}

#: CC_RENAME takes two paths ("src NUL dst NUL"); it is exercised by the
#: concrete impact experiments (the ``mv file file*`` scenario), not by
#: the single-path accuracy workload.
CC_RENAME = 0x4E

#: Path buffer size: up to 4 path characters + NUL terminator.
PATH_SPACE = 5

#: Printable ASCII accepted by the server in file paths (§6.2).
PRINTABLE_MIN = 33
PRINTABLE_MAX = 126

#: Annotation stubs (§6.1): the client writes these constants, the server
#: checks them, bypassing checksum/session-key logic on both sides.
STUBS: dict[str, int] = {
    "sum": 0x5A,
    "bb_key": 0x1234,
    "bb_seq": 0x0001,
    "bb_pos": 0,
}

#: The §6.2 accuracy workload: every utility a literal-mode client.
FSP_PARAMS = FspParams(
    path_space=PATH_SPACE, commands=COMMANDS, utilities=tuple(COMMANDS),
    printable=(PRINTABLE_MIN, PRINTABLE_MAX), stubs=STUBS)

FSP_LAYOUT = FSP_PARAMS.layout
