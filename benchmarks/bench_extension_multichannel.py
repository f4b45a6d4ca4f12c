"""Extension: multi-channel scaling (the paper's stated future work).

The paper evaluates a single memory channel and leaves multi-channel
systems to future work.  This bench scales the channel count under
both FR-FCFS and FQ-VFTF for an aggressive pair and checks that (a)
aggregate throughput scales with channels and (b) the FQ scheduler's
QoS protection survives the extension (per-channel VTMS state).
"""

from conftest import once

from repro.sim.config import SystemConfig
from repro.sim.runner import DEFAULT_CYCLES, default_warmup, run_solo
from repro.sim.system import CmpSystem
from repro.stats.report import render_table
from repro.workloads.spec2000 import profile


def run_sweep(cycles):
    subject, background = profile("vpr"), profile("art")
    base = run_solo(subject, scale=2.0, cycles=cycles).threads[0].ipc
    rows = []
    for channels in (1, 2, 4):
        for policy in ("FR-FCFS", "FQ-VFTF"):
            config = SystemConfig(
                num_cores=2, policy=policy, num_channels=channels
            )
            system = CmpSystem(config, [subject, background])
            result = system.run(cycles, warmup=default_warmup(cycles))
            total_cas = sum(d.cas_count for d in system.drams)
            rows.append(
                {
                    "channels": channels,
                    "policy": policy,
                    "subject_norm_ipc": result.threads[0].ipc / base,
                    "subject_latency": result.threads[0].mean_read_latency,
                    "total_cas": total_cas,
                    "agg_util": result.data_bus_utilization,
                }
            )
    return rows


def test_multichannel_scaling(benchmark):
    rows = once(benchmark, lambda: run_sweep(DEFAULT_CYCLES))
    print()
    print(
        render_table(
            ["channels", "policy", "vpr norm IPC", "vpr latency", "CAS", "util"],
            [
                (r["channels"], r["policy"], r["subject_norm_ipc"],
                 r["subject_latency"], r["total_cas"], r["agg_util"])
                for r in rows
            ],
        )
    )

    def pick(channels, policy):
        return next(
            r for r in rows if r["channels"] == channels and r["policy"] == policy
        )

    # Throughput scales with channel count for the bandwidth-bound pair.
    assert pick(2, "FR-FCFS")["total_cas"] > 1.3 * pick(1, "FR-FCFS")["total_cas"]

    # QoS extends to multi-channel: FQ keeps the subject at/above the
    # single-channel QoS baseline at every channel count, and beats
    # FR-FCFS wherever contention bites.
    for channels in (1, 2):
        fq = pick(channels, "FQ-VFTF")
        fr = pick(channels, "FR-FCFS")
        assert fq["subject_norm_ipc"] > 0.9
        assert fq["subject_latency"] <= fr["subject_latency"] * 1.05

    # More channels relieve vpr's latency even under FR-FCFS.
    assert (
        pick(4, "FR-FCFS")["subject_latency"]
        < pick(1, "FR-FCFS")["subject_latency"]
    )
