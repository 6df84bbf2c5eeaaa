"""Executable spec: ``max_paths`` caps degrade to per-prefix granularity.

ROADMAP open item, pinned before it gets fixed: with ``shards > 1`` the
``max_paths`` cap applies per worker assignment, and an assignment is
one frontier prefix (the seed phase and each frontier prefix budget
independently), so a capped sharded run explores *more*
than a capped serial run and byte parity with the serial engine is NOT
claimed — parity is only guaranteed for runs that drain the tree below
the cap. What a capped sharded run must still honour is soundness: every
finding it does produce is a genuine member of ``PS \\ PC``.

If a future PR implements a global cross-shard cap, the lower bounds
here stay valid and the parity assertion below can be tightened.
"""

import itertools

import pytest

from repro.achilles import Achilles, AchillesConfig
from repro.bench.experiments import FSP_SESSION_MASK
from repro.symex.engine import EngineConfig
from repro.systems import fsp

#: Small enough to truncate the 2-command FSP tree (~300 paths) hard.
CAP = 10

#: Large enough that every run drains the tree.
DRAIN = 10_000

#: The run's client subset. The soundness oracle below must use the same
#: subset: server paths for the other six utilities are genuine Trojans
#: relative to this run's PC even though the full client set covers them.
CLIENT_COMMANDS = dict(itertools.islice(fsp.COMMANDS.items(), 2))


def _generable_by_run_clients(witness: bytes) -> bool:
    from repro.messages.concrete import decode_ints

    return (fsp.is_client_generable(witness)
            and decode_ints(fsp.FSP_LAYOUT, witness)["cmd"]
            in CLIENT_COMMANDS.values())


def _run(shards: int, max_paths: int | None):
    config = AchillesConfig(
        layout=fsp.FSP_LAYOUT, mask=FSP_SESSION_MASK,
        server_engine=(EngineConfig() if max_paths is None
                       else EngineConfig(max_paths=max_paths)),
        shards=shards)
    with Achilles(config) as achilles:
        predicates = achilles.extract_clients(
            fsp.literal_clients(CLIENT_COMMANDS))
        return achilles.search(fsp.fsp_server, predicates)


def _signature(report):
    return [(f.server_path_id, f.decisions, f.witness) for f in report.findings]


@pytest.fixture(scope="module")
def serial_uncapped():
    return _run(1, None)


@pytest.fixture(scope="module")
def serial_capped():
    return _run(1, CAP)


@pytest.fixture(scope="module")
def sharded_capped():
    return _run(2, CAP)


class TestSerialCap:
    def test_cap_is_exact_in_serial_runs(self, serial_uncapped, serial_capped):
        assert serial_uncapped.server_paths_explored > CAP  # cap binds
        assert serial_capped.server_paths_explored == CAP

    def test_serial_capped_findings_prefix_the_uncapped_run(
            self, serial_uncapped, serial_capped):
        # DFS completes paths in a deterministic order, so truncating at
        # the cap truncates the findings list — a prefix, never a reshuffle.
        full = _signature(serial_uncapped)
        capped = _signature(serial_capped)
        assert capped == full[:len(capped)]


class TestShardedCap:
    def test_cap_degrades_to_per_shard_granularity(self, sharded_capped):
        # The documented behavior: each shard assignment (and the seed
        # phase) budgets max_paths independently, so the union exceeds
        # the serial cap. A global cross-shard cap would make this an
        # equality — tighten it then.
        assert sharded_capped.shards == 2
        assert sharded_capped.server_paths_explored >= CAP

    def test_no_silent_parity_claim_but_soundness_holds(self, sharded_capped):
        # Byte parity with the serial capped run is NOT asserted (which
        # findings land depends on the shard partition); soundness is:
        # everything reported is accepted-but-ungenerable.
        assert sharded_capped.trojan_count > 0
        for witness in sharded_capped.witnesses():
            assert fsp.is_server_accepted(witness)
            assert not _generable_by_run_clients(witness)

    def test_drained_runs_restore_byte_parity(self):
        # The guarantee's boundary: a cap high enough to drain the tree
        # is no cap at all, and the shard merge is byte-identical again.
        assert _signature(_run(2, DRAIN)) == _signature(_run(1, DRAIN))
