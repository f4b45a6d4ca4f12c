"""Controller-level bandwidth guarantees, without cores in the loop.

Drives the memory controller directly with two always-backlogged
request sources and checks the FQ property the paper states: a thread
allocated share φ receives at least (approximately) φ of the memory
system's delivered bandwidth while it is backlogged, regardless of the
other thread's load — and under FR-FCFS the same setup lets the bursty
thread capture far more than its share.
"""

from repro.controller.address_map import AddressMap
from repro.controller.controller import MemoryController
from repro.controller.request import MemoryRequest, RequestKind
from repro.core.policies import get_policy
from repro.dram.dram_system import DramSystem
from repro.dram.timing import DDR2Timing

AMAP = AddressMap()


class Source:
    """Keeps ``depth`` sequential read requests resident for a thread."""

    def __init__(self, thread_id, depth, row_stride, sequential=True):
        self.thread_id = thread_id
        self.depth = depth
        self.next_index = 0
        self.sequential = sequential
        self.row_stride = row_stride
        self.live = []

    def top_up(self, controller, now):
        self.live = [r for r in self.live if not r.done]
        while len(self.live) < self.depth:
            index = self.next_index
            if self.sequential:
                bank = (index // 32) % 8
                row = self.row_stride + index // 256
                column = index % 32
            else:
                bank = (index * 5) % 8
                row = self.row_stride + (index * 13) % 64
                column = (index * 7) % 32
            request = MemoryRequest(
                thread_id=self.thread_id,
                kind=RequestKind.READ,
                address=AMAP.encode(0, bank, row, column),
                arrival_time=now,
            )
            if not controller.try_enqueue(request):
                break
            self.live.append(request)
            self.next_index += 1


def run_backlogged(policy, shares, cycles=60_000, depths=(16, 4)):
    dram = DramSystem(DDR2Timing(), enable_refresh=False)
    controller = MemoryController(
        dram, AMAP, 2, policy=get_policy(policy), shares=list(shares)
    )
    aggressive = Source(0, depths[0], row_stride=0, sequential=True)
    meek = Source(1, depths[1], row_stride=10_000, sequential=False)
    for now in range(cycles):
        aggressive.top_up(controller, now)
        meek.top_up(controller, now)
        controller.tick(now)
    total = sum(controller.stats.cas_cycles)
    return [c / total for c in controller.stats.cas_cycles], controller


class TestFqBandwidthGuarantee:
    def test_equal_shares_split_service(self):
        fractions, _ = run_backlogged("FQ-VFTF", [0.5, 0.5])
        # Both backlogged throughout: each gets ~half of delivered
        # service despite very different queue depths and locality.
        assert fractions[1] > 0.40

    def test_asymmetric_shares_respected(self):
        fractions, _ = run_backlogged("FQ-VFTF", [0.25, 0.75])
        assert fractions[1] > 0.55

    def test_fr_fcfs_lets_deep_queue_capture(self):
        fr_fractions, _ = run_backlogged("FR-FCFS", [0.5, 0.5])
        fq_fractions, _ = run_backlogged("FQ-VFTF", [0.5, 0.5])
        # The deep sequential source takes a clearly larger slice under
        # FR-FCFS than under FQ.
        assert fr_fractions[0] > fq_fractions[0] + 0.05

    def test_throughput_not_sacrificed(self):
        _, fr = run_backlogged("FR-FCFS", [0.5, 0.5])
        _, fq = run_backlogged("FQ-VFTF", [0.5, 0.5])
        fr_total = fr.dram.cas_count
        fq_total = fq.dram.cas_count
        assert fq_total > 0.8 * fr_total
