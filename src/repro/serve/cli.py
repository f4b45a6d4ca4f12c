"""``repro-fqms serve|submit|status|results|sweep``: the service front-end.

``serve`` runs the orchestrator in the foreground (address printed and
written to ``<root>/serve.addr``); ``submit``/``status`` talk to it
over the JSON-line protocol; ``results`` reads the result store
*directly*, so queries work with no service running — the store is the
durable artifact, the service only fills it.  ``sweep`` runs one grid
through an in-process service and prints its results.

The service root defaults to ``REPRO_SERVE`` (else ``.repro-serve``),
so a shell exporting the knob can drop ``--root`` everywhere.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from typing import Any, Dict, List, Optional, Sequence

from .. import env
from ..obs.fleet import HEARTBEAT_INTERVAL_S
from ..policy import registered_names
from ..sim.cache import configure_cache
from ..sim.parallel import run_label
from ..stats.report import render_table
from . import clock
from .protocol import ProtocolServer, request, results_rows
from .service import ExperimentService
from .spec import SweepSpec
from .store import ResultStore

#: Environment knob naming the default service root.
ROOT_ENV_VAR = "REPRO_SERVE"

DEFAULT_ROOT = ".repro-serve"


def default_root() -> str:
    value = env.text(ROOT_ENV_VAR, "").strip()
    return value if value else DEFAULT_ROOT


def _add_root(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--root",
        default=None,
        help=f"service root directory (default REPRO_SERVE or {DEFAULT_ROOT})",
    )


def _add_workers(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers", type=int, default=None,
        help="concurrent worker processes (default REPRO_SERVE_WORKERS or 2)",
    )


def _add_grid(parser: argparse.ArgumentParser, policies: Optional[str]) -> None:
    """The grid flags ``submit`` and ``sweep`` share.

    ``policies`` is the default policy list; None means every
    registered policy.
    """
    parser.add_argument(
        "--workload", action="append", default=None, metavar="A,B,...",
        help="comma-separated benchmark mix; repeat for several mixes "
        "(default vpr,art)",
    )
    parser.add_argument(
        "--policies", default=policies,
        help="comma-separated policies (default "
        f"{policies or 'every registered policy'}; registered: "
        f"{', '.join(registered_names())})",
    )
    parser.add_argument(
        "--cycles", type=int, default=20000,
        help="measurement window per run (default %(default)s)",
    )
    parser.add_argument(
        "--warmup", type=int, default=None,
        help="warmup cycles (default cycles//4)",
    )
    parser.add_argument(
        "--seeds", default="0", help="comma-separated seed list (default 0)",
    )
    parser.add_argument(
        "--shares", action="append", default=None, metavar="P1,P2,...",
        help="per-thread φ vector to sweep; repeat for a φ grid; "
        "'none' = equal shares (the default)",
    )


def _parse_share_vector(value: str) -> Optional[List[float]]:
    if value.strip().lower() in ("", "none", "equal"):
        return None
    return [float(x) for x in value.split(",") if x.strip()]


def _sweep_from_args(args: argparse.Namespace) -> SweepSpec:
    """The grid ``_add_grid``'s flags describe; ``ValueError`` if it is bad."""
    workloads = [
        [n.strip() for n in mix.split(",") if n.strip()]
        for mix in (args.workload or ["vpr,art"])
    ]
    if args.policies is None:
        policies = list(registered_names())
    else:
        policies = [p.strip() for p in args.policies.split(",") if p.strip()]
    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    share_vectors = (
        [_parse_share_vector(v) for v in args.shares]
        if args.shares
        else [None]
    )
    warmup = args.cycles // 4 if args.warmup is None else args.warmup
    return SweepSpec(
        workloads=tuple(tuple(mix) for mix in workloads),
        policies=tuple(policies),
        cycles=args.cycles,
        warmup=warmup,
        seeds=tuple(seeds),
        share_vectors=tuple(
            tuple(v) if v is not None else None for v in share_vectors
        ),
    )


def _phi(shares: Optional[Sequence[float]]) -> str:
    return ",".join(f"{s:g}" for s in shares) if shares else "equal"


def _tally(counts: Dict[str, int]) -> str:
    return (
        f"{counts['done']} done, {counts['cached']} cached, "
        f"{counts['retried']} retried, {counts['lost']} lost, "
        f"{counts['error']} error"
    )


# -- serve ------------------------------------------------------------------


def _serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-fqms serve",
        description="Run the fair-queued experiment service in the foreground.",
    )
    _add_root(parser)
    _add_workers(parser)
    parser.add_argument(
        "--timeout", type=float, default=None,
        help="per-job wall-clock timeout in seconds "
        "(default REPRO_SERVE_TIMEOUT or 600)",
    )
    return parser


async def _serve_until_shutdown(
    root: str, workers: Optional[int], timeout_s: Optional[float]
) -> int:
    service = ExperimentService(root, workers=workers, timeout_s=timeout_s)
    server = ProtocolServer(service, root)
    await service.start()
    address = await server.start()
    print(f"serve: listening on {address} (root {root})")
    sys.stdout.flush()
    try:
        await server.shutdown_requested.wait()
        print("serve: shutdown requested; draining")
        await service.drain()
    finally:
        await server.stop()
        await service.stop(drain=False)
    print(f"serve: drained ({_tally(service.counts)})")
    return 0


def _cmd_serve(argv: Sequence[str]) -> int:
    args = _serve_parser().parse_args(list(argv))
    root = args.root if args.root is not None else default_root()
    try:
        return asyncio.run(
            _serve_until_shutdown(root, args.workers, args.timeout)
        )
    except KeyboardInterrupt:
        print("serve: interrupted")
        return 130


# -- submit -----------------------------------------------------------------


def _submit_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-fqms submit",
        description="Submit a sweep grid to a running experiment service.",
    )
    _add_root(parser)
    parser.add_argument(
        "--tenant", default="anonymous", help="submitting tenant name"
    )
    parser.add_argument(
        "--share", type=float, default=1.0,
        help="this tenant's fair-queuing share φ (default 1.0)",
    )
    _add_grid(parser, policies="FR-FCFS,FQ-VFTF")
    parser.add_argument(
        "--wait", action="store_true",
        help="poll the service until every submitted job is terminal",
    )
    return parser


def _cmd_submit(argv: Sequence[str]) -> int:
    args = _submit_parser().parse_args(list(argv))
    root = args.root if args.root is not None else default_root()
    try:
        sweep = _sweep_from_args(args)
    except ValueError as exc:
        print(f"submit: {exc}")
        return 2
    try:
        response = request(
            root,
            {
                "op": "submit",
                "tenant": args.tenant,
                "share": args.share,
                "sweep": sweep.to_payload(),
            },
        )
    except (OSError, ValueError) as exc:
        print(f"submit: cannot reach a service at {root!r}: {exc}")
        return 1
    if not response.get("ok"):
        print(f"submit: rejected: {response.get('error')}")
        return 1
    ticket = response["ticket"]
    print(
        f"submit: {ticket['runs']} runs for tenant {ticket['tenant']} "
        f"(φ={ticket['share']:g}): {ticket['queued']} queued, "
        f"{ticket['cached']} cache-served"
    )
    if args.wait:
        return _wait_for_drain(root)
    return 0


def _wait_for_drain(root: str) -> int:
    while True:
        try:
            response = request(root, {"op": "status"})
        except (OSError, ValueError) as exc:
            print(f"submit: lost the service while waiting: {exc}")
            return 1
        status = response.get("status", {})
        if status.get("outstanding", 0) <= 0:
            counts = status.get("counts", {})
            print(
                f"submit: drained ({counts.get('done', 0)} done, "
                f"{counts.get('cached', 0)} cached, "
                f"{counts.get('lost', 0)} lost)"
            )
            return 1 if counts.get("lost", 0) else 0
        clock.sleep(0.2)


# -- status -----------------------------------------------------------------


def _status_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-fqms status",
        description="Snapshot of a running experiment service.",
    )
    _add_root(parser)
    parser.add_argument(
        "--json", action="store_true", help="print the raw status object"
    )
    return parser


def _cmd_status(argv: Sequence[str]) -> int:
    args = _status_parser().parse_args(list(argv))
    root = args.root if args.root is not None else default_root()
    try:
        response = request(root, {"op": "status"})
    except (OSError, ValueError) as exc:
        print(f"status: cannot reach a service at {root!r}: {exc}")
        return 1
    status = response.get("status", {})
    if args.json:
        print(json.dumps(status, indent=2, sort_keys=True))
        return 0
    counts = status.get("counts", {})
    print(
        f"status: {status.get('queued', 0)} queued, "
        f"{len(status.get('running', []))} running "
        f"(of {status.get('workers', 0)} workers), "
        f"{counts.get('done', 0)} done, {counts.get('cached', 0)} cached, "
        f"{counts.get('retried', 0)} retried, {counts.get('lost', 0)} lost"
    )
    pids = status.get("worker_pids", {})
    if pids:
        pairs = ", ".join(f"job {j}: pid {p}" for j, p in sorted(pids.items()))
        print(f"status: workers: {pairs}")
    tenants = status.get("tenants", {})
    if tenants:
        rows = [
            (
                name,
                f"{t['share']:g}",
                t["submitted"],
                t["finished"],
                f"{t['busy_s']:.2f}",
                f"{t['slowdown']:.2f}",
            )
            for name, t in sorted(tenants.items())
        ]
        print(
            render_table(
                ["tenant", "phi", "submitted", "finished", "busy_s", "slowdown"],
                rows,
            )
        )
    fairness = status.get("fairness", {})
    if fairness:
        print(
            f"status: max_slowdown {fairness.get('max_slowdown', 1.0):.2f}, "
            f"unfairness {fairness.get('unfairness', 1.0):.2f}"
        )
    dashboard = status.get("dashboard")
    if dashboard:
        print(dashboard)
    problems = status.get("store_problems", [])
    for problem in problems:
        print(f"status: store problem: {problem}")
    return 0


# -- results ----------------------------------------------------------------


def _results_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-fqms results",
        description="Query the result store (works with no service running).",
    )
    _add_root(parser)
    parser.add_argument("--policy", default=None, help="filter: policy name")
    parser.add_argument(
        "--workload", default=None, metavar="A,B,...",
        help="filter: exact benchmark mix",
    )
    parser.add_argument("--seed", type=int, default=None, help="filter: seed")
    parser.add_argument("--tenant", default=None, help="filter: tenant")
    parser.add_argument(
        "--source", default=None, help="filter: run source (fresh/cache)"
    )
    parser.add_argument(
        "--aggregate", default=None, metavar="METRIC",
        help="print the mean of one manifest metric instead of rows "
        "(e.g. result.cycles, thread.0.ipc)",
    )
    parser.add_argument(
        "--by", default="policy",
        help="aggregation group field (policy, workload, seed, tenant, "
        "source; default %(default)s)",
    )
    parser.add_argument(
        "--json", action="store_true", help="print rows as JSON"
    )
    return parser


def _cmd_results(argv: Sequence[str]) -> int:
    args = _results_parser().parse_args(list(argv))
    root = args.root if args.root is not None else default_root()
    from pathlib import Path

    store = ResultStore(Path(root) / "store")
    workload = (
        [n.strip() for n in args.workload.split(",") if n.strip()]
        if args.workload
        else None
    )
    filters: Dict[str, Any] = {
        "policy": args.policy,
        "workload": workload,
        "seed": args.seed,
        "tenant": args.tenant,
        "source": args.source,
    }
    if args.aggregate:
        table = store.aggregate(
            args.aggregate,
            by=args.by,
            **{k: v for k, v in filters.items() if v is not None},
        )
        rows = [(key, f"{value:.6g}") for key, value in table.items()]
        print(render_table([args.by, f"mean {args.aggregate}"], rows))
    else:
        rows_json = results_rows(store, **filters)
        if args.json:
            print(json.dumps(rows_json, indent=2, sort_keys=True))
        else:
            rows = [
                (
                    row["fingerprint"][:16],
                    "+".join(row["workload"]),
                    row["policy"],
                    _phi(row["shares"]),
                    row["seed"],
                    row["source"],
                    row["attempts"],
                    ", ".join(f"{ipc:.3f}" for ipc in row["ipc"]),
                )
                for row in rows_json
            ]
            print(
                render_table(
                    [
                        "fingerprint", "mix", "policy", "phi", "seed",
                        "source", "retries", "ipc/thread",
                    ],
                    rows,
                )
            )
    for problem in store.problems:
        print(f"results: store problem: {problem}")
    return 0


# -- sweep ------------------------------------------------------------------

#: The one tenant a ``sweep`` submits its grid as.
SWEEP_TENANT = "sweep"


def _sweep_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-fqms sweep",
        description=(
            "Run a sweep grid through an in-process experiment service, "
            "record every run in its result store, and print a summary."
        ),
    )
    _add_root(parser)
    _add_grid(parser, policies=None)
    _add_workers(parser)
    parser.add_argument(
        "--progress", action="store_true",
        help="show the service's job dashboard: repainted live on a "
        "terminal, one final snapshot otherwise",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the persistent result cache for this invocation "
        "(runs already in the root's store are still served from it)",
    )
    return parser


async def _repaint_until_drained(service: ExperimentService, stream: Any) -> None:
    """Repaint the service's dashboard in place until every job is terminal."""
    drained = asyncio.ensure_future(service.drain())
    lines = 0
    while True:
        finished = drained.done()
        block = service.status()["dashboard"]
        if lines:
            # Cursor up over the previous block, clear to end of screen.
            stream.write(f"\x1b[{lines}F\x1b[J")
        stream.write(block + "\n")
        stream.flush()
        lines = block.count("\n") + 1
        if finished:
            return
        await asyncio.wait({drained}, timeout=HEARTBEAT_INTERVAL_S)


async def _run_sweep(
    service: ExperimentService, sweep: SweepSpec, progress: bool
) -> None:
    await service.start()
    try:
        service.submit_sweep(SWEEP_TENANT, sweep)
        if progress and sys.stdout.isatty():
            await _repaint_until_drained(service, sys.stdout)
        else:
            await service.drain()
            if progress:
                print(service.status()["dashboard"])
    finally:
        await service.stop(drain=False)


def _cmd_sweep(argv: Sequence[str]) -> int:
    args = _sweep_parser().parse_args(list(argv))
    root = args.root if args.root is not None else default_root()
    try:
        sweep = _sweep_from_args(args)
        service = ExperimentService(root, workers=args.workers)
    except ValueError as exc:
        print(f"sweep: {exc}")
        return 2
    configure_cache(enabled=not args.no_cache)
    asyncio.run(_run_sweep(service, sweep, args.progress))
    store = service.store
    rows = []
    for spec in sweep.expand():
        result = store.get_result(spec)
        if result is not None:
            rows.append((
                "+".join(spec.names), spec.policy, _phi(spec.shares),
                spec.seed, result.cycles,
                ", ".join(f"{t.ipc:.3f}" for t in result.threads),
            ))
    print(
        render_table(
            ["mix", "policy", "phi", "seed", "cycles", "ipc/thread"], rows
        )
    )
    counts = service.counts
    print(
        f"sweep: {counts['submitted']} runs ({_tally(counts)}); "
        f"recorded in {store.root}"
    )
    for job in service.jobs.values():
        if job.state in ("lost", "error"):
            detail = (job.error or "").strip().splitlines()[-1:]
            print(f"sweep: run {run_label(job.spec)} {job.state}: {''.join(detail)}")
    for problem in store.problems:
        print(f"sweep: store problem: {problem}")
    return 1 if counts["lost"] or counts["error"] else 0


# -- dispatch ---------------------------------------------------------------

_COMMANDS = {
    "serve": _cmd_serve,
    "submit": _cmd_submit,
    "status": _cmd_status,
    "results": _cmd_results,
    "sweep": _cmd_sweep,
}


def main(argv: Sequence[str]) -> int:
    """Entry point: ``argv[0]`` selects the serve-family command."""
    if not argv or argv[0] not in _COMMANDS:
        names = ", ".join(sorted(_COMMANDS))
        print(f"serve: expected one of {names}")
        return 2
    return _COMMANDS[argv[0]](list(argv[1:]))
