"""The Raft, 2PC and broadcast hunts, pinned byte for byte.

Each of these systems is its corpus template built from the system's
protocol constants. This suite pins what a hunt of each finds: the
digest of every finding's decision vector and witness, in order (as
``perfbench/workloads.py::digest`` computes it), the finding count and
the run's solver queries, serially and at shards=2. A sharded hunt
poses a few more queries than the serial one on Raft and 2PC, because
each shard worker starts with an empty query cache; the findings do not
change.
"""

import hashlib

import pytest

from repro.bench.experiments import run_accuracy

#: (system, shards) -> (findings digest, findings, solver queries).
PINNED = {
    ("raft", 1): ("554e99d34a2ce746", 9, 116),
    ("raft", 2): ("554e99d34a2ce746", 9, 120),
    ("tpc", 1): ("fc39da175b63f6b2", 2, 41),
    ("tpc", 2): ("fc39da175b63f6b2", 2, 42),
    ("broadcast", 1): ("4a0e6262744d4e56", 7, 77),
    ("broadcast", 2): ("4a0e6262744d4e56", 7, 77),
}


def _digest(report) -> str:
    """Digest of the ordered witnesses and their decision vectors."""
    sha = hashlib.sha256()
    for finding in report.findings:
        sha.update(bytes(finding.decisions))
        sha.update(b"|")
        sha.update(finding.witness)
        sha.update(b"\n")
    return sha.hexdigest()[:16]


@pytest.mark.parametrize("system,shards", sorted(PINNED))
def test_findings_and_solver_queries_are_pinned(system, shards):
    outcome = run_accuracy(system, shards=shards)
    report = outcome.report
    digest, findings, queries = PINNED[system, shards]
    assert (_digest(report), len(report.findings),
            report.solver_queries) == (digest, findings, queries)
    assert outcome.precision == outcome.recall == 1.0
