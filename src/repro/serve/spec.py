"""Declarative sweep specs: grids of runs, expanded deterministically.

A :class:`SweepSpec` names a full experiment grid — workload mixes ×
policies × φ share vectors × seeds at one run window — without holding
any live simulator state, so it travels as JSON over the submit
protocol and expands to the same deduplicated
:class:`~repro.sim.parallel.RunSpec` list on any host.

Expansion order is part of the contract (workloads outermost, then
policies, then share vectors, then seeds): job ids, queue submission
order, and therefore the fair scheduler's dispatch sequence are all
derived from it, and the service's end-to-end tests pin byte-identical
results across resubmissions.

:func:`spec_payload` / :func:`spec_from_payload` are the JSON round
trip for a single ``RunSpec`` — the form the result store embeds in
every manifest so a stored run can be re-queried (or re-executed) from
the document alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..sim.parallel import RunSpec, group_spec


@dataclass(frozen=True)
class SweepSpec:
    """One declarative experiment grid.

    ``workloads`` is a tuple of benchmark mixes (each a tuple of
    registered profile names); ``share_vectors`` is a tuple of φ
    vectors to sweep — ``None`` entries mean equal shares (the
    historical fingerprint).  The whole grid is checked at
    construction — every share vector against every mix's arity, and
    every run's mix, benchmark names and policy through
    :class:`~repro.sim.parallel.RunSpec` — so a bad grid fails whole at
    submit time, before any of it is queued.
    """

    workloads: Tuple[Tuple[str, ...], ...]
    policies: Tuple[str, ...]
    cycles: int
    warmup: int
    seeds: Tuple[int, ...] = (0,)
    share_vectors: Tuple[Optional[Tuple[float, ...]], ...] = (None,)

    def __post_init__(self) -> None:
        if not self.workloads or not self.policies or not self.seeds:
            raise ValueError("sweep needs >=1 workload, policy, and seed")
        if self.cycles <= 0 or self.warmup < 0:
            raise ValueError(
                f"window must have cycles > 0 and warmup >= 0, got "
                f"cycles={self.cycles} warmup={self.warmup}"
            )
        if not self.share_vectors:
            raise ValueError("share_vectors must not be empty (use (None,))")
        for shares in self.share_vectors:
            if shares is None:
                continue
            for mix in self.workloads:
                if len(shares) != len(mix):
                    raise ValueError(
                        f"share vector {shares} has {len(shares)} entries "
                        f"but mix {'+'.join(mix)} has {len(mix)} threads"
                    )
        self.expand()

    def expand(self) -> List[RunSpec]:
        """The grid as a deduplicated, deterministically ordered spec list."""
        specs: List[RunSpec] = []
        for mix in self.workloads:
            for policy in self.policies:
                for shares in self.share_vectors:
                    for seed in self.seeds:
                        specs.append(
                            group_spec(
                                mix,
                                policy,
                                self.cycles,
                                self.warmup,
                                seed,
                                shares=shares,
                            )
                        )
        return list(dict.fromkeys(specs))

    def to_payload(self) -> Dict[str, Any]:
        """JSON-safe form (the submit protocol's ``sweep`` field)."""
        return {
            "workloads": [list(mix) for mix in self.workloads],
            "policies": list(self.policies),
            "cycles": self.cycles,
            "warmup": self.warmup,
            "seeds": list(self.seeds),
            "share_vectors": [
                list(shares) if shares is not None else None
                for shares in self.share_vectors
            ],
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "SweepSpec":
        """Parse a submit payload; raises ``ValueError`` on a bad grid."""
        try:
            workloads = tuple(
                tuple(str(name) for name in mix) for mix in payload["workloads"]
            )
            policies = tuple(str(p) for p in payload["policies"])
            cycles = int(payload["cycles"])
            warmup = int(payload["warmup"])
            seeds = tuple(int(s) for s in payload.get("seeds", [0]))
            raw_shares = payload.get("share_vectors", [None])
            share_vectors = tuple(
                tuple(float(x) for x in shares) if shares is not None else None
                for shares in raw_shares
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed sweep payload: {exc!r}") from exc
        return cls(
            workloads=workloads,
            policies=policies,
            cycles=cycles,
            warmup=warmup,
            seeds=seeds,
            share_vectors=share_vectors,
        )


def spec_payload(spec: RunSpec) -> Dict[str, Any]:
    """JSON-safe form of one ``RunSpec`` (embedded in store manifests)."""
    return {
        "kind": spec.kind,
        "names": list(spec.names),
        "policy": spec.policy,
        "scale": spec.scale,
        "cycles": spec.cycles,
        "warmup": spec.warmup,
        "seed": spec.seed,
        "shares": list(spec.shares) if spec.shares is not None else None,
    }


def spec_from_payload(payload: Dict[str, Any]) -> RunSpec:
    """Rebuild the ``RunSpec`` stored by :func:`spec_payload`."""
    shares = payload.get("shares")
    return RunSpec(
        kind=str(payload["kind"]),
        names=tuple(str(n) for n in payload["names"]),
        policy=str(payload["policy"]),
        scale=float(payload["scale"]),
        cycles=int(payload["cycles"]),
        warmup=int(payload["warmup"]),
        seed=int(payload["seed"]),
        shares=tuple(float(s) for s in shares) if shares is not None else None,
    )


def job_cost(spec: RunSpec) -> float:
    """The scheduler's cost estimate for one run: simulated core-cycles.

    Deliberately the same unit the paper's memory scheduler charges
    (service time in its own clock): virtual finish tags advance by
    ``cost / φ``, so two tenants with equal shares interleave whole
    runs of equal size and a φ=4 tenant drains four runs per competitor
    run.  A run builds and simulates one core per thread, so its cost
    scales with the thread count: a quad run costs twice a pair run.
    """
    return float((spec.warmup + spec.cycles) * len(spec.names))
