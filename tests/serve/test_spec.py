"""SweepSpec expansion, dedupe, payload round trips, and validation."""

import pytest

from repro.serve.spec import (
    SweepSpec,
    job_cost,
    spec_from_payload,
    spec_payload,
)
from repro.sim.parallel import group_spec


def small_sweep(**overrides):
    fields = dict(
        workloads=(("vpr", "art"), ("gzip", "twolf")),
        policies=("FR-FCFS", "FQ-VFTF"),
        cycles=2000,
        warmup=500,
        seeds=(0, 1),
        share_vectors=(None, (4.0, 1.0)),
    )
    fields.update(overrides)
    return SweepSpec(**fields)


class TestExpansion:
    def test_grid_size_and_contract_order(self):
        specs = small_sweep().expand()
        # 2 mixes x 2 policies x 2 share vectors x 2 seeds.
        assert len(specs) == 16
        # Workloads outermost, then policies, then shares, then seeds.
        assert [s.names for s in specs[:8]] == [("vpr", "art")] * 8
        assert [s.policy for s in specs[:4]] == ["FR-FCFS"] * 4
        assert [s.shares for s in specs[:2]] == [None, None]
        assert [s.seed for s in specs[:2]] == [0, 1]
        assert specs[2].shares == (0.8, 0.2)

    def test_expansion_is_deterministic(self):
        assert small_sweep().expand() == small_sweep().expand()

    def test_equivalent_share_vectors_dedupe(self):
        # (4, 1) and (0.8, 0.2) normalize to the same phi vector, so
        # the grid collapses them to one run each.
        sweep = small_sweep(
            workloads=(("vpr", "art"),),
            policies=("FR-FCFS",),
            seeds=(0,),
            share_vectors=((4.0, 1.0), (0.8, 0.2)),
        )
        specs = sweep.expand()
        assert len(specs) == 1
        assert specs[0].shares == (0.8, 0.2)

    def test_duplicate_seeds_dedupe(self):
        sweep = small_sweep(seeds=(0, 0, 1))
        assert len(sweep.expand()) == 16

    def test_shares_normalize_to_fractions(self):
        spec = group_spec(("vpr", "art"), "FQ-VFTF", 100, 0, 0, shares=(4, 1))
        assert spec.shares == (0.8, 0.2)
        twin = group_spec(
            ("vpr", "art"), "FQ-VFTF", 100, 0, 0, shares=(0.8, 0.2)
        )
        assert spec.fingerprint() == twin.fingerprint()


class TestPayloadRoundTrips:
    def test_sweep_payload_round_trip(self):
        sweep = small_sweep()
        assert SweepSpec.from_payload(sweep.to_payload()) == sweep

    def test_sweep_payload_is_json_safe(self):
        import json

        payload = small_sweep().to_payload()
        assert SweepSpec.from_payload(json.loads(json.dumps(payload))) == small_sweep()

    def test_run_spec_payload_round_trip(self):
        spec = group_spec(("vpr", "art"), "FQ-VFTF", 800, 200, 3, shares=(4, 1))
        rebuilt = spec_from_payload(spec_payload(spec))
        assert rebuilt == spec
        assert rebuilt.fingerprint() == spec.fingerprint()

    def test_run_spec_payload_without_shares(self):
        spec = group_spec(("vpr", "art"), "FR-FCFS", 800, 200, 0)
        payload = spec_payload(spec)
        assert payload["shares"] is None
        assert spec_from_payload(payload) == spec

    def test_malformed_payload_raises_value_error(self):
        with pytest.raises(ValueError, match="malformed sweep payload"):
            SweepSpec.from_payload({"policies": ["FR-FCFS"]})


class TestValidation:
    def test_empty_policies_rejected(self):
        with pytest.raises(ValueError, match="policy"):
            small_sweep(policies=())

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError, match="cycles"):
            small_sweep(cycles=0)
        with pytest.raises(ValueError, match="warmup"):
            small_sweep(warmup=-1)

    def test_share_arity_mismatch_rejected(self):
        with pytest.raises(ValueError, match="threads"):
            small_sweep(share_vectors=((1.0, 2.0, 3.0),))

    def test_empty_share_vectors_rejected(self):
        with pytest.raises(ValueError, match="share_vectors"):
            small_sweep(share_vectors=())


def test_job_cost_is_simulated_cycles():
    # Core-cycles: a run simulates its window once per thread.
    pair = group_spec(("vpr", "art"), "FR-FCFS", 2000, 500, 0)
    quad = group_spec(("vpr", "art", "gzip", "twolf"), "FR-FCFS", 2000, 500, 0)
    assert job_cost(pair) == 5000.0
    assert job_cost(quad) == 2 * job_cost(pair)
