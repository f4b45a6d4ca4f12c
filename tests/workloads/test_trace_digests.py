"""The batched draw loop reproduces the per-record generator's streams.

``trace_digests.json`` pins the SHA-256 of the first 5,000 records of
every spec2000 profile's ``make_trace`` stream, at seeds {0, 7} and base
addresses {0, 3 << 34}.  The digests were captured from the per-record
generator that the draw loop replaced.  ``__next__`` itself now serves
records from the draw loop, so these digests are the oracle.
"""

import hashlib
import itertools
import json
from pathlib import Path

import pytest

from repro.workloads.spec2000 import BENCHMARKS

RECORDS = 5000
SEEDS = (0, 7)
BASES = (0, 3 << 34)
DIGESTS = json.loads(Path(__file__).with_name("trace_digests.json").read_text())


def digest(records):
    """SHA-256 over one ``gap write address dep`` line per record."""
    h = hashlib.sha256()
    for r in records:
        h.update(f"{r.inst_gap} {int(r.is_write)} {r.address:#x} {r.dep}\n".encode())
    return h.hexdigest()


def test_every_profile_seed_and_base_is_pinned():
    assert set(DIGESTS) == {
        f"{p.name}/{seed}/{base:#x}" for p in BENCHMARKS for seed in SEEDS for base in BASES
    }


@pytest.mark.parametrize("base", BASES, ids=hex)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("profile", BENCHMARKS, ids=lambda p: p.name)
def test_make_trace_matches_pinned_digest(profile, seed, base):
    records = itertools.islice(profile.make_trace(seed, base), RECORDS)
    assert digest(records) == DIGESTS[f"{profile.name}/{seed}/{base:#x}"]
