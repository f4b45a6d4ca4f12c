"""The JSON-line protocol and the serve-family CLI front-end.

Server-side tests run a real ``ProtocolServer`` over a unix (or
fallback TCP) socket and drive it with the same synchronous client the
CLI uses; the offline ``results`` command is checked for byte-identical
rendering across invocations — the property the CI smoke test relies
on to diff first-run and cache-served sweeps.
"""

import asyncio
import json
import socket as socketlib

import pytest

from repro.serve import cli as serve_cli
from repro.serve.protocol import (
    ADDRESS_FILE,
    ProtocolServer,
    read_address,
    request,
    results_rows,
)
from repro.serve.service import ExperimentService
from repro.serve.spec import SweepSpec
from repro.serve.store import ResultStore
from repro.sim.parallel import group_spec
from repro.sim.retry import RetryPolicy

from .conftest import InstantExecutor

SWEEP_PAYLOAD = SweepSpec(
    workloads=(("vpr", "art"),),
    policies=("FR-FCFS", "FQ-VFTF"),
    cycles=600,
    warmup=150,
    seeds=(0, 1),
).to_payload()


def send_raw(root, blob: bytes) -> dict:
    """One raw request line (possibly malformed) to the service at root."""
    address = read_address(root)
    if address.startswith("unix:"):
        sock = socketlib.socket(socketlib.AF_UNIX, socketlib.SOCK_STREAM)
        target = address[len("unix:"):]
    else:
        _, host, port = address.split(":", 2)
        sock = socketlib.socket(socketlib.AF_INET, socketlib.SOCK_STREAM)
        target = (host, int(port))
    sock.settimeout(10.0)
    try:
        sock.connect(target)
        sock.sendall(blob + b"\n")
        with sock.makefile("r") as handle:
            return json.loads(handle.readline())
    finally:
        sock.close()


async def with_server(root, tiny_result, scenario):
    service = ExperimentService(
        root, workers=2,
        retry_policy=RetryPolicy(retries=0, base_delay_s=0.0),
        executor=InstantExecutor(tiny_result),
    )
    server = ProtocolServer(service, root)
    await service.start()
    await server.start()
    try:
        return await scenario(service, server)
    finally:
        await server.stop()
        await service.stop(drain=False)


class TestProtocolOps:
    def test_submit_status_results_round_trip(self, tmp_path, tiny_result):
        async def scenario(service, server):
            pong = await asyncio.to_thread(request, tmp_path, {"op": "ping"})
            assert pong == {"ok": True, "op": "ping", "pong": True}

            submitted = await asyncio.to_thread(
                request, tmp_path,
                {"op": "submit", "tenant": "alice", "share": 2.0,
                 "sweep": SWEEP_PAYLOAD},
            )
            assert submitted["ok"]
            assert submitted["ticket"]["runs"] == 4
            await service.drain()

            status = await asyncio.to_thread(
                request, tmp_path, {"op": "status"}
            )
            assert status["status"]["counts"]["done"] == 4
            assert status["status"]["tenants"]["alice"]["share"] == 2.0

            results = await asyncio.to_thread(
                request, tmp_path, {"op": "results", "policy": "FQ-VFTF"}
            )
            assert len(results["rows"]) == 2
            assert all(r["policy"] == "FQ-VFTF" for r in results["rows"])
            # The online op and the offline query surface agree exactly.
            assert results["rows"] == results_rows(
                service.store, policy="FQ-VFTF"
            )

        asyncio.run(with_server(tmp_path, tiny_result, scenario))

    def test_error_responses_do_not_kill_the_connection(
        self, tmp_path, tiny_result
    ):
        async def scenario(service, server):
            bad_json = await asyncio.to_thread(send_raw, tmp_path, b"{ nope")
            assert bad_json == {"ok": False, "error": "request is not valid JSON"}

            not_object = await asyncio.to_thread(send_raw, tmp_path, b"[1, 2]")
            assert not_object["ok"] is False

            unknown = await asyncio.to_thread(
                request, tmp_path, {"op": "frobnicate"}
            )
            assert unknown["ok"] is False
            assert "unknown op" in unknown["error"]

            bad_sweep = await asyncio.to_thread(
                request, tmp_path,
                {"op": "submit", "sweep": {"policies": ["FR-FCFS"]}},
            )
            assert bad_sweep["ok"] is False
            assert "malformed sweep payload" in bad_sweep["error"]
            # The service is still healthy afterwards.
            pong = await asyncio.to_thread(request, tmp_path, {"op": "ping"})
            assert pong["ok"]

        asyncio.run(with_server(tmp_path, tiny_result, scenario))

    def test_shutdown_op_sets_the_event(self, tmp_path, tiny_result):
        async def scenario(service, server):
            assert not server.shutdown_requested.is_set()
            response = await asyncio.to_thread(
                request, tmp_path, {"op": "shutdown"}
            )
            assert response == {"ok": True, "op": "shutdown"}
            await asyncio.wait_for(server.shutdown_requested.wait(), timeout=5)

        asyncio.run(with_server(tmp_path, tiny_result, scenario))

    def test_address_file_lifecycle(self, tmp_path, tiny_result):
        async def scenario(service, server):
            address = (tmp_path / ADDRESS_FILE).read_text().strip()
            assert address == server.address
            assert address.startswith(("unix:", "tcp:"))

        asyncio.run(with_server(tmp_path, tiny_result, scenario))
        assert not (tmp_path / ADDRESS_FILE).exists()  # removed on stop

    def test_stop_with_an_idle_connection_logs_nothing(
        self, tmp_path, tiny_result
    ):
        """A client still connected at shutdown: ``stop`` ends its
        handler, so loop teardown cancels no handler task (which Python
        3.11 reports as "Exception in callback ... CancelledError")."""
        reported = []

        async def scenario():
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: reported.append(context)
            )
            service = ExperimentService(
                tmp_path, workers=1,
                retry_policy=RetryPolicy(retries=0, base_delay_s=0.0),
                executor=InstantExecutor(tiny_result),
            )
            server = ProtocolServer(service, tmp_path)
            await service.start()
            address = await server.start()
            if address.startswith("unix:"):
                reader, writer = await asyncio.open_unix_connection(
                    address[len("unix:"):]
                )
            else:
                _, host, port = address.split(":", 2)
                reader, writer = await asyncio.open_connection(host, int(port))
            # One round trip: the handler is now idle in its next read.
            writer.write(b'{"op": "ping"}\n')
            assert json.loads(await reader.readline())["pong"] is True
            await server.stop()
            await service.stop(drain=False)
            # stop() ended the handler itself, hanging up on the client.
            assert await asyncio.wait_for(reader.readline(), timeout=5) == b""
            writer.close()
            await writer.wait_closed()

        asyncio.run(scenario())
        assert reported == []


class TestOfflineResultsCli:
    @pytest.fixture()
    def populated_root(self, tmp_path, tiny_result):
        store = ResultStore(tmp_path / "store")
        for policy in ("FR-FCFS", "FQ-VFTF"):
            for seed in (0, 1):
                store.record(
                    group_spec(("vpr", "art"), policy, 600, 150, seed),
                    tiny_result,
                    tenant="alice",
                )
        return tmp_path

    def run_cli(self, capsys, *argv):
        code = serve_cli.main(list(argv))
        return code, capsys.readouterr().out

    def test_rendering_is_byte_identical_across_runs(
        self, populated_root, capsys
    ):
        root = str(populated_root)
        code1, out1 = self.run_cli(capsys, "results", "--root", root)
        code2, out2 = self.run_cli(capsys, "results", "--root", root)
        assert code1 == code2 == 0
        assert out1 == out2
        assert "FQ-VFTF" in out1
        assert "vpr+art" in out1

    def test_json_rows_match_query_surface(self, populated_root, capsys):
        code, out = self.run_cli(
            capsys, "results", "--root", str(populated_root),
            "--policy", "FR-FCFS", "--json",
        )
        assert code == 0
        rows = json.loads(out)
        store = ResultStore(populated_root / "store")
        assert rows == results_rows(store, policy="FR-FCFS")
        assert len(rows) == 2

    def test_filters_narrow_the_table(self, populated_root, capsys):
        code, out = self.run_cli(
            capsys, "results", "--root", str(populated_root),
            "--policy", "FQ-VFTF", "--seed", "1", "--json",
        )
        rows = json.loads(out)
        assert len(rows) == 1
        assert rows[0]["seed"] == 1

    def test_aggregate_table(self, populated_root, capsys):
        code, out = self.run_cli(
            capsys, "results", "--root", str(populated_root),
            "--aggregate", "result.cycles", "--by", "policy",
        )
        assert code == 0
        assert "mean result.cycles" in out
        assert "FR-FCFS" in out and "FQ-VFTF" in out

    def test_aggregate_by_unknown_field_is_a_usage_error(
        self, populated_root, capsys
    ):
        with pytest.raises(SystemExit) as exit_info:
            self.run_cli(
                capsys, "results", "--root", str(populated_root),
                "--aggregate", "result.cycles", "--by", "bogus",
            )
        assert exit_info.value.code == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err

    def test_store_problems_are_surfaced(self, populated_root, capsys):
        index = populated_root / "store" / "index.jsonl"
        with open(index, "a") as handle:
            handle.write("garbage line\n")
        code, out = self.run_cli(
            capsys, "results", "--root", str(populated_root)
        )
        assert code == 0
        assert "store problem" in out
        assert "corrupt index line" in out


class TestCliDispatch:
    def test_unknown_command_is_rejected(self, capsys):
        assert serve_cli.main([]) == 2
        assert serve_cli.main(["bogus"]) == 2
        assert "expected one of" in capsys.readouterr().out

    def test_root_cli_routes_serve_family(self, tmp_path, capsys):
        from repro.cli import main as root_main

        (tmp_path / "store").mkdir(parents=True)
        assert root_main(["results", "--root", str(tmp_path)]) == 0
        assert "fingerprint" in capsys.readouterr().out

    def test_submit_without_service_is_friendly(self, tmp_path, capsys):
        code = serve_cli.main(["submit", "--root", str(tmp_path)])
        assert code == 1
        assert "cannot reach a service" in capsys.readouterr().out

    def test_status_without_service_is_friendly(self, tmp_path, capsys):
        code = serve_cli.main(["status", "--root", str(tmp_path)])
        assert code == 1
        assert "cannot reach a service" in capsys.readouterr().out

    def test_submit_rejects_bad_grid_before_connecting(self, tmp_path, capsys):
        code = serve_cli.main([
            "submit", "--root", str(tmp_path), "--shares", "1,2,3",
        ])
        assert code == 2
        assert "threads" in capsys.readouterr().out
        code = serve_cli.main([
            "submit", "--root", str(tmp_path), "--workload", ",",
        ])
        assert code == 2
        assert "at least one benchmark" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "counts, code",
        [
            ({"done": 2, "cached": 0, "lost": 0, "error": 0}, 0),
            ({"done": 1, "cached": 0, "lost": 0, "error": 1}, 1),
            ({"done": 1, "cached": 0, "lost": 1, "error": 0}, 1),
        ],
        ids=["clean", "error", "lost"],
    )
    def test_submit_wait_exits_one_on_a_failed_run(
        self, tmp_path, capsys, monkeypatch, counts, code
    ):
        def fake_request(root, payload):
            if payload["op"] == "submit":
                return {"ok": True, "ticket": {
                    "runs": 2, "tenant": "alice", "share": 1.0,
                    "queued": 2, "cached": 0,
                }}
            return {"ok": True, "status": {"outstanding": 0, "counts": counts}}

        monkeypatch.setattr(serve_cli, "request", fake_request)
        argv = ["submit", "--root", str(tmp_path), "--wait"]
        assert serve_cli.main(argv) == code
        out = capsys.readouterr().out
        assert (
            f"submit: drained ({counts['done']} done, 0 cached, "
            f"{counts['lost']} lost, {counts['error']} error)"
        ) in out

    def test_status_counts_errored_runs(self, tmp_path, capsys, monkeypatch):
        def fake_request(root, payload):
            return {"ok": True, "status": {
                "queued": 0, "running": [], "workers": 2,
                "counts": {"done": 1, "error": 3},
            }}

        monkeypatch.setattr(serve_cli, "request", fake_request)
        assert serve_cli.main(["status", "--root", str(tmp_path)]) == 0
        assert (
            "status: 0 queued, 0 running (of 2 workers), 1 done, 0 cached, "
            "0 retried, 0 lost, 3 error"
        ) in capsys.readouterr().out

    def test_default_root_honors_env_knob(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE", "/tmp/custom-root")
        assert serve_cli.default_root() == "/tmp/custom-root"
        monkeypatch.delenv("REPRO_SERVE")
        assert serve_cli.default_root() == serve_cli.DEFAULT_ROOT
