"""Out-of-order core approximation (interval model).

The paper uses a proprietary latch-level IBM 970 derivative.  What the
memory-scheduling study needs from a core is the *memory request
process* it generates and the latency→rate feedback of a closed
system.  This model preserves those:

* a reorder buffer of ``rob_size`` instructions — retirement stalls
  when the oldest incomplete load is at the ROB head, so long memory
  latencies throttle the core exactly as in the paper's Figure 1;
* dependence-aware lookahead — independent references inside the ROB
  window issue concurrently (memory-level parallelism), bounded by the
  MSHR file, while dependence chains serialize (vpr/twolf-style
  latency sensitivity);
* limited issue ports and per-thread NACK back-pressure from the
  memory controller.

Non-memory instructions retire at ``retire_width`` per cycle; their
cost is carried by each trace record's instruction gap.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Optional, Set, Tuple

from ..controller.request import MemoryRequest, RequestKind
from .cache import MshrFile
from .hierarchy import CacheHierarchy
from .prefetch import PrefetchConfig, StreamPrefetcher
from .trace import TraceRecord

#: Returns True when the request was accepted, False on NACK.
SubmitFn = Callable[[MemoryRequest], bool]


@dataclass(frozen=True)
class CoreConfig:
    """Core microarchitecture parameters (paper Table 5 defaults)."""

    rob_size: int = 128
    retire_width: float = 4.0
    issue_ports: int = 2
    #: Outstanding line misses per core.  Table 5 gives the D-cache 16
    #: MSHRs *and* the private L2 32 transaction-buffer entries; line
    #: misses merge upstream, so the L2's 32 entries are the per-thread
    #: bound on memory-level parallelism seen by the memory system.
    mshrs: int = 32
    lsq_size: int = 32
    prefetch: PrefetchConfig = field(default_factory=PrefetchConfig)

    def __post_init__(self) -> None:
        if self.rob_size <= 0 or self.issue_ports <= 0 or self.lsq_size <= 0:
            raise ValueError("core resources must be positive")
        if self.retire_width <= 0:
            raise ValueError(f"retire_width must be positive, got {self.retire_width}")
        if self.mshrs <= 0:
            raise ValueError(f"mshrs must be positive, got {self.mshrs}")


class _OpState:
    WAIT_DEP = 0
    READY = 1
    OUTSTANDING = 2


#: Marker waiter occupying an MSHR allocated by the prefetcher.
_PREFETCH_SENTINEL = object()


@dataclass
class WindowOp:
    """A memory reference in flight inside the core's window."""

    pos: int
    mem_index: int
    is_write: bool
    address: int
    line: int
    dep_index: int
    state: int = _OpState.WAIT_DEP
    issued_at: Optional[int] = None


@dataclass
class CoreStats:
    instructions: float = 0.0
    cycles: int = 0
    loads_issued: int = 0
    stores_issued: int = 0
    memory_reads: int = 0
    l2_hits: int = 0
    nacks: int = 0
    mshr_stall_cycles: int = 0
    head_block_cycles: int = 0

    @property
    def ipc(self) -> float:
        if self.cycles == 0:
            return 0.0
        return self.instructions / self.cycles


class OooCore:
    """One hardware thread: trace consumer, cache hierarchy driver."""

    def __init__(
        self,
        core_id: int,
        config: CoreConfig,
        trace: Iterator[TraceRecord],
        hierarchy: CacheHierarchy,
        submit: SubmitFn,
    ):
        self.core_id = core_id
        self.config = config
        self.hierarchy = hierarchy
        self.submit = submit
        self.stats = CoreStats()
        #: Optional run telemetry (repro.telemetry); None in normal
        #: runs, so submit/fill hooks cost one attribute test each.
        self.telemetry = None
        # The MSHR file holds demand and prefetch misses together (so a
        # demand miss merges with an in-flight prefetch); each kind has
        # its own allocation budget.
        self.mshr = MshrFile(config.mshrs + config.prefetch.budget)
        self.prefetcher = StreamPrefetcher(config.prefetch)
        self._prefetch_lines: Set[int] = set()
        self._demand_outstanding = 0
        self._trace = trace
        self._trace_done = False
        #: Position (instruction index) the next unfetched record holds.
        self._next_pos: Optional[int] = None
        self._next_record: Optional[TraceRecord] = None
        self._mem_ops_fetched = 0
        #: Instructions retired so far (fractional widths accumulate).
        self._retired = 0.0
        self._window: List[WindowOp] = []
        #: Memory-op indices fetched but not yet complete (dep tracking).
        self._incomplete: Set[int] = set()
        #: Stall fast path: the core made no progress last cycle and
        #: nothing can change until a fill arrives.
        self._asleep = False
        #: A submit was NACKed this cycle; the core must stay awake to
        #: retry even though it made no other progress.
        self._nack_blocked = False
        #: Local completions (cache hits): heap of (time, mem_index, op).
        self._local_done: List[Tuple[int, int, WindowOp]] = []
        self._advance_trace(initial=True)

    # -- trace feed -------------------------------------------------------

    def _advance_trace(self, initial: bool = False) -> None:
        prev_pos = -1 if initial else (self._next_pos or 0)
        try:
            record = next(self._trace)
        except StopIteration:
            self._trace_done = True
            self._next_record = None
            self._next_pos = None
            return
        self._next_record = record
        self._next_pos = prev_pos + record.inst_gap + 1

    @property
    def finished(self) -> bool:
        """True when the trace is exhausted and all work has drained."""
        return (
            self._trace_done
            and not self._window
            and not self.hierarchy.pending_writebacks
            and len(self.mshr) == 0
        )

    # -- per-cycle step -----------------------------------------------------

    def tick(self, now: int) -> None:
        """Advance the core by one cycle."""
        self.stats.cycles += 1
        if self._asleep:
            # Fully stalled on memory: every op waits on a dependence or
            # an outstanding miss, retirement is blocked at the oldest
            # incomplete load, and nothing can change until a fill.
            self.stats.head_block_cycles += 1
            return
        activity_mark = (
            self.stats.loads_issued
            + self.stats.stores_issued
            + self._mem_ops_fetched
        )
        retired_mark = self._retired
        prefetch_mark = self.prefetcher.issued
        self._nack_blocked = False
        if self._local_done:
            self._complete_local(now)
        if self.hierarchy.pending_writebacks:
            self._drain_writebacks(now)
        self._fetch(now)
        self._issue(now)
        self._retire(now)
        made_progress = (
            self.stats.loads_issued
            + self.stats.stores_issued
            + self._mem_ops_fetched
            != activity_mark
            or self._retired != retired_mark
            or self.prefetcher.issued != prefetch_mark
            or self._local_done
            or self.hierarchy.pending_writebacks
        )
        if not made_progress and self._window and not self._nack_blocked:
            self._asleep = True

    def _complete_local(self, now: int) -> None:
        while self._local_done and self._local_done[0][0] <= now:
            _, _, op = heapq.heappop(self._local_done)
            self._finish_op(op)

    def _finish_op(self, op: WindowOp) -> None:
        self._incomplete.discard(op.mem_index)
        if op in self._window:
            self._window.remove(op)
        # Wake dependents.
        for other in self._window:
            if other.state == _OpState.WAIT_DEP and other.dep_index not in self._incomplete:
                other.state = _OpState.READY

    def _drain_writebacks(self, now: int) -> None:
        while self.hierarchy.pending_writebacks:
            line = self.hierarchy.pending_writebacks[0]
            request = MemoryRequest(
                thread_id=self.core_id,
                kind=RequestKind.WRITE,
                address=self.hierarchy.line_address(line),
                arrival_time=now,
            )
            if not self.submit(request):
                self.stats.nacks += 1
                break
            if self.telemetry is not None:
                self.telemetry.on_core_submit(request, line, now)
            self.hierarchy.pending_writebacks.popleft()

    def _fetch(self, now: int) -> None:
        while (
            self._next_record is not None
            and len(self._window) < self.config.lsq_size
            and self._next_pos is not None
            and self._next_pos <= self._retired + self.config.rob_size
        ):
            record = self._next_record
            dep_index = (
                self._mem_ops_fetched - record.dep if record.dep > 0 else -1
            )
            op = WindowOp(
                pos=self._next_pos,
                mem_index=self._mem_ops_fetched,
                is_write=record.is_write,
                address=record.address,
                line=self.hierarchy.line_of(record.address),
                dep_index=dep_index,
            )
            if dep_index >= 0 and dep_index in self._incomplete:
                op.state = _OpState.WAIT_DEP
            else:
                op.state = _OpState.READY
            self._window.append(op)
            self._incomplete.add(op.mem_index)
            self._mem_ops_fetched += 1
            self._advance_trace()

    def _issue(self, now: int) -> None:
        ports = self.config.issue_ports
        blocked_on_mshr = False
        for op in self._window:
            if ports <= 0:
                break
            if op.state != _OpState.READY:
                continue
            result = self.hierarchy.access(op.address, op.is_write)
            self.prefetcher.train(result.line, now)
            if result.hit_level is not None:
                op.state = _OpState.OUTSTANDING
                op.issued_at = now
                heapq.heappush(
                    self._local_done, (now + result.latency, op.mem_index, op)
                )
                self.stats.l2_hits += 1
                self._count_issue(op)
                ports -= 1
                continue
            # L2 miss: needs memory.
            if self.mshr.outstanding(result.line):
                # Merge — possibly into an in-flight prefetch.
                self.mshr.allocate(result.line, op)
                if result.line in self._prefetch_lines:
                    self.prefetcher.note_useful()
                op.state = _OpState.OUTSTANDING
                op.issued_at = now
                self._count_issue(op)
                ports -= 1
                continue
            if self._demand_outstanding >= self.config.mshrs:
                blocked_on_mshr = True
                continue
            request = MemoryRequest(
                thread_id=self.core_id,
                kind=RequestKind.READ,
                address=self.hierarchy.line_address(result.line),
                arrival_time=now,
            )
            if not self.submit(request):
                self.stats.nacks += 1
                # Controller back-pressure: retry next cycle.
                self._nack_blocked = True
                break
            if self.telemetry is not None:
                self.telemetry.on_core_submit(request, result.line, now)
            self.mshr.allocate(result.line, op)
            self._demand_outstanding += 1
            op.state = _OpState.OUTSTANDING
            op.issued_at = now
            self.stats.memory_reads += 1
            self._count_issue(op)
            ports -= 1
        if blocked_on_mshr:
            self.stats.mshr_stall_cycles += 1
        self._issue_prefetches(now)

    def _issue_prefetches(self, now: int) -> None:
        for line in self.prefetcher.candidates(len(self._prefetch_lines), now):
            if self.mshr.outstanding(line) or self.hierarchy.l2.contains(line):
                continue
            request = MemoryRequest(
                thread_id=self.core_id,
                kind=RequestKind.READ,
                address=self.hierarchy.line_address(line),
                arrival_time=now,
                prefetch=True,
            )
            if not self.submit(request):
                # Prefetches are hints: a NACKed one is simply dropped.
                self.stats.nacks += 1
                break
            if self.telemetry is not None:
                self.telemetry.on_core_submit(request, line, now)
            self.mshr.allocate(line, _PREFETCH_SENTINEL)
            self._prefetch_lines.add(line)

    def _count_issue(self, op: WindowOp) -> None:
        if op.is_write:
            self.stats.stores_issued += 1
        else:
            self.stats.loads_issued += 1

    def _retire(self, now: int) -> None:
        target = self._retired + self.config.retire_width
        # The oldest incomplete *load* blocks retirement at its position;
        # stores drain through the store queue without blocking.
        blocker = None
        for op in self._window:
            if not op.is_write:
                blocker = op.pos
                break
        if blocker is not None and target > blocker:
            target = float(blocker)
            self.stats.head_block_cycles += 1
        # Never retire past the fetch frontier (program order).
        if self._next_pos is not None and target > self._next_pos:
            target = float(self._next_pos)
        if target > self._retired:
            self.stats.instructions += target - self._retired
            self._retired = target

    # -- memory completion ---------------------------------------------------

    def on_fill(self, line: int, now: int) -> None:
        """A read for ``line`` returned from the memory system."""
        if self.telemetry is not None:
            self.telemetry.on_core_fill(self.core_id, line, now)
        self._asleep = False
        waiters = self.mshr.complete(line)
        if line in self._prefetch_lines:
            self._prefetch_lines.discard(line)
        else:
            self._demand_outstanding -= 1
        dirty = any(op.is_write for op in waiters if isinstance(op, WindowOp))
        self.hierarchy.fill_from_memory(line, dirty=dirty)
        for op in waiters:
            if isinstance(op, WindowOp):
                self._finish_op(op)

    # -- event-driven engine support --------------------------------------------
    #
    # The engine may jump the global clock from ``now`` to some
    # ``target`` provided every intervening cycle is provably a no-op
    # for every component, up to counters that can be replicated in
    # bulk.  For a core that contract splits three ways:
    #
    # * **asleep** — every op waits on a miss and retirement is blocked;
    #   only a fill (delivered by the system) changes anything, so
    #   :meth:`wake_time` returns None and :meth:`sleep_skip` accounts
    #   the span.
    # * **quiescent** — pure compute; the only future event is reaching
    #   the next fetch point as the ROB retires toward it.
    # * **active** — ops in flight but nothing issuable *this* cycle: no
    #   READY op (issuing would touch cache LRU state and train the
    #   prefetcher), no fetch headroom, no local completion due, no
    #   prefetch the stream engine would emit.  Such a cycle only
    #   advances retirement (a pure function of the frozen window) and,
    #   when a credit-blocked writeback is pending, records one NACK —
    #   both replicated exactly by :meth:`skip`.
    #
    # Wake times are conservative: answering *early* merely steps a
    # no-op cycle, answering late would diverge from the cycle oracle.
    #
    # Under the sharded wake index the answer is also *consumed*: the
    # engine pops this core's heap entry when its wake comes due and
    # re-asks only after the next tick (the dirty-republish pass in
    # ``CmpSystem._event_target``).  A wake therefore covers
    # exactly the span until the core is next ticked or delivered to —
    # it must not bake in assumptions about state that a fill or an
    # accepted writeback could change in between, because no fresh
    # query happens until after that interaction.

    #: Cap on the retirement-recurrence walk inside :meth:`wake_time`.
    #: If the window's drain takes longer to converge, the wake time
    #: falls back to a conservative (early, therefore safe) bound.
    _RETIRE_WALK_LIMIT = 512

    @property
    def asleep(self) -> bool:
        """True while fully stalled on memory (wakes on the next fill)."""
        return self._asleep

    def sleep_skip(self, cycles: int) -> None:
        """Account ``cycles`` of fully-stalled time in one step."""
        if cycles <= 0:
            return
        self.stats.cycles += cycles
        self.stats.head_block_cycles += cycles

    def quiescent(self) -> bool:
        """True when the core cannot interact with memory until it fetches."""
        return (
            not self._window
            and not self.hierarchy.pending_writebacks
            and len(self.mshr) == 0
            and not self._local_done
        )

    def has_blocked_writeback(self) -> bool:
        """True when a pending writeback exists (head retried each cycle)."""
        return bool(self.hierarchy.pending_writebacks)

    def _retire_blocker(self) -> Optional[int]:
        """Position of the oldest incomplete load, as :meth:`_retire` sees it."""
        for op in self._window:
            if not op.is_write:
                return op.pos
        return None

    def wake_time(self, now: int) -> Optional[int]:
        """Earliest cycle ≥ ``now`` whose tick could do unskippable work.

        ``None`` means no self-generated event exists: only an external
        fill (tracked by the system's delivery heap) can change this
        core's state.  The caller must separately check whether a
        pending head writeback would be *accepted* this cycle — that
        depends on controller buffer state the core cannot see.
        """
        if self._asleep:
            return None
        if self.prefetcher.would_issue(len(self._prefetch_lines)):
            return now
        if self.quiescent():
            if self._next_pos is None:
                return None
            gap = self._next_pos - (self._retired + self.config.rob_size)
            if gap <= 0:
                return now
            return now + max(1, math.ceil(gap / self.config.retire_width))
        for op in self._window:
            if op.state == _OpState.READY:
                return now
        events: List[int] = []
        if self._local_done:
            head = self._local_done[0][0]
            if head <= now:
                return now
            events.append(head)
        retire_event = self._retire_walk(now)
        if retire_event is not None:
            if retire_event <= now:
                return now
            events.append(retire_event)
        if not events:
            return None
        return min(events)

    def _retire_walk(self, now: int) -> Optional[int]:
        """Earliest retirement-driven event ≥ ``now`` (fetch or stall).

        Walks the per-cycle retirement recurrence against the frozen
        window to find (a) the first cycle at which the fetch frontier
        comes within ROB reach, and (b) — when the core could fall
        asleep — the first cycle whose tick makes no progress, which
        must be stepped so ``tick`` performs the sleep transition.
        """
        width = self.config.retire_width
        rob = self.config.rob_size
        next_pos = self._next_pos
        blocker = self._retire_blocker()
        can_fetch = (
            self._next_record is not None
            and len(self._window) < self.config.lsq_size
        )
        # Cores holding writebacks (or due local completions) never pass
        # the made-progress test, so they cannot fall asleep mid-span.
        may_stall = (
            bool(self._window)
            and not self.hierarchy.pending_writebacks
            and not self._local_done
        )
        if blocker is None and next_pos is None:
            # Degenerate tail (trace exhausted, store-only window):
            # retirement advances unboundedly; don't skip.
            return now
        if can_fetch and next_pos is not None and next_pos <= self._retired + rob:
            return now
        if not can_fetch and not may_stall:
            return None
        retired = self._retired
        for k in range(self._RETIRE_WALK_LIMIT):
            target = retired + width
            if blocker is not None and target > blocker:
                target = float(blocker)
            if next_pos is not None and target > next_pos:
                target = float(next_pos)
            if target <= retired:
                # Tick at now + k retires nothing: the stall cycle.
                return now + k if may_stall else None
            retired = target
            if can_fetch and next_pos is not None and next_pos <= retired + rob:
                # Tick at now + k retires to ``retired``; the fetch at
                # now + k + 1 sees it within ROB reach.
                return now + k + 1
        return now + self._RETIRE_WALK_LIMIT

    def skip(self, now: int, target: int) -> None:
        """Bulk-account the no-op cycles ``[now, target)`` for this core.

        Legal only when the engine verified nothing unskippable happens
        in the span (see :meth:`wake_time`); replicates exactly what
        ``target - now`` consecutive ticks would have done.
        """
        if target <= now:
            return
        if self._asleep:
            self.sleep_skip(target - now)
        elif self.quiescent():
            self.skip_to(now, target)
        else:
            self._active_skip(now, target)

    def _active_skip(self, now: int, target: int) -> None:
        span = target - now
        self.stats.cycles += span
        if self.hierarchy.pending_writebacks:
            # One rejected head-of-queue submit per cycle (the engine
            # only skips while the head would be NACKed throughout).
            self.stats.nacks += span
        # Replicate _retire cycle by cycle against the frozen window;
        # float accumulation order must match the oracle exactly.
        width = self.config.retire_width
        next_pos = self._next_pos
        blocker = self._retire_blocker()
        retired = self._retired
        remaining = span
        while remaining > 0:
            target_r = retired + width
            blocked = blocker is not None and target_r > blocker
            if blocked:
                target_r = float(blocker)
            if next_pos is not None and target_r > next_pos:
                target_r = float(next_pos)
            if target_r > retired:
                if blocked:
                    self.stats.head_block_cycles += 1
                self.stats.instructions += target_r - retired
                retired = target_r
                remaining -= 1
            else:
                # Converged: every remaining cycle repeats identically.
                if blocked:
                    self.stats.head_block_cycles += remaining
                remaining = 0
        self._retired = retired

    def next_event_time(self, now: int) -> Optional[int]:
        """Next cycle this core could submit memory work, or None if done."""
        if not self.quiescent():
            return now + 1
        if self._next_pos is None:
            return None
        gap = self._next_pos - (self._retired + self.config.rob_size)
        if gap <= 0:
            return now + 1
        return now + max(1, math.ceil(gap / self.config.retire_width))

    def skip_to(self, now: int, target: int) -> None:
        """Bulk-retire pure-compute cycles from ``now`` to ``target``.

        Only legal while :meth:`quiescent`; the simulation engine
        guarantees ``target`` does not overshoot the next fetch point.
        """
        if target <= now:
            return
        cycles = target - now
        self.stats.cycles += cycles
        advance = cycles * self.config.retire_width
        limit = self._next_pos if self._next_pos is not None else self._retired
        new_retired = min(self._retired + advance, float(limit))
        if new_retired > self._retired:
            self.stats.instructions += new_retired - self._retired
            self._retired = new_retired
