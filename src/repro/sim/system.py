"""The CMP system: cores + interconnect latencies + controller + DRAM.

Builds the full simulated machine from a :class:`SystemConfig` and a
list of benchmark profiles (one per core), runs it for a bounded number
of cycles with an optional warmup, and reports windowed statistics.

The only shared resource is the SDRAM memory system, matching the
paper's methodology: each core has private caches and a private slice
of the physical address space (threads still contend for the same
banks, rows, and buses through the shared address map).
"""

from __future__ import annotations

import gc
import heapq
import pickle
from collections import OrderedDict, deque
from dataclasses import dataclass, field, replace
from typing import Deque, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..check import RunChecker, checks_enabled
from ..controller.address_map import AddressMap
from ..controller.controller import MemoryController
from ..controller.request import MemoryRequest, RequestKind
from ..cpu.core_model import OooCore
from ..cpu.hierarchy import CacheHierarchy
from ..dram.dram_system import DramSystem
from ..obs.engine import ENGINE_EXTRA_PREFIX, engine_extras
from ..observer import Observer, subscribe
from ..policy import make_policy
from .config import SystemConfig
from .wakeindex import WakeIndex


@dataclass
class ThreadResult:
    """Windowed per-thread measurements."""

    name: str
    instructions: float
    cycles: int
    mean_read_latency: float
    bus_utilization: float
    reads: int
    writes: int
    nacks: int

    @property
    def ipc(self) -> float:
        """Instructions per cycle over the measured window."""
        if self.cycles == 0:
            return 0.0
        return self.instructions / self.cycles


@dataclass
class SimResult:
    """Windowed whole-system measurements for one run."""

    policy: str
    cycles: int
    threads: List[ThreadResult]
    data_bus_utilization: float
    bank_utilization: float
    refreshes: int = 0
    extras: Dict[str, float] = field(default_factory=dict)

    def thread(self, name: str) -> ThreadResult:
        """Look up a thread result by benchmark name."""
        for t in self.threads:
            if t.name == name:
                return t
        raise KeyError(f"no thread named {name!r}")


class CmpSystem:
    """A runnable CMP + memory-system instance."""

    def __init__(
        self,
        config: SystemConfig,
        profiles: Sequence,
        check: Optional[bool] = None,
    ):
        """Build a system running one workload per core.

        ``profiles`` entries may be synthetic
        :class:`~repro.workloads.synthetic.BenchmarkProfile` objects or
        recorded :class:`~repro.workloads.trace_workload.TraceWorkload`
        streams — anything exposing ``name``, ``make_trace(seed,
        base_address)`` (an iterator of
        :class:`~repro.cpu.trace.TraceRecord`) and ``prewarm_stream(seed,
        base_address)``, which yields (addresses, writes) chunks: byte
        addresses and, index for index, store flags of the references
        that warm the core's L2, in order.  Chunks keep a build from
        holding a whole prewarm stream in memory.  A workload whose
        ``reads_file`` is true never has its warm L2 image memoized.

        ``check`` attaches one :mod:`repro.check` runtime validator
        (protocol sanitizer + scheduler invariant checker) per channel
        through :meth:`attach`; ``None`` defers to the ``REPRO_CHECK``
        environment variable so checked runs survive the parallel
        engine's process pool.  Checking never changes results — only
        whether violations raise.
        """
        if len(profiles) != config.num_cores:
            raise ValueError(
                f"{len(profiles)} profiles for {config.num_cores} cores"
            )
        self.config = config
        self.profiles = list(profiles)
        self.address_map = AddressMap(
            line_bytes=config.l2.line_bytes,
            num_ranks=config.num_ranks,
            num_banks=config.num_banks,
            columns_per_row=config.columns_per_row,
            num_channels=config.num_channels,
            xor_bank=config.xor_bank,
        )
        # One independent DRAM device + controller per channel (the
        # paper evaluates a single channel; multi-channel is its stated
        # future work).  Each thread holds its share φ of *every*
        # channel, so per-channel VTMS state is the natural extension.
        # Stateful policies (BLISS, MISE) get a fresh instance per
        # channel — their bookkeeping is per-controller.
        self.drams: List[DramSystem] = []
        self.controllers: List[MemoryController] = []
        for _ in range(config.num_channels):
            dram = DramSystem(
                config.timing,
                num_ranks=config.num_ranks,
                num_banks=config.num_banks,
                enable_refresh=config.enable_refresh,
            )
            self.drams.append(dram)
            self.controllers.append(
                MemoryController(
                    dram=dram,
                    address_map=self.address_map,
                    num_threads=config.num_cores,
                    policy=make_policy(config),
                    shares=config.shares,
                    read_entries_per_thread=config.read_entries_per_thread,
                    write_entries_per_thread=config.write_entries_per_thread,
                    row_policy=config.row_policy,
                    write_drain=config.write_drain,
                )
            )
        #: Single-channel aliases (the common case and the public API).
        self.dram = self.drams[0]
        self.controller = self.controllers[0]
        #: Subscriber to the system's own events (submit, fill, sample,
        #: finalize); None in plain runs.  See :meth:`attach`.
        self.observer: Optional[Observer] = None
        #: Every attached observer, in attach order (finalized by run).
        self._subscribers: List[Observer] = []
        if check is None:
            check = checks_enabled()
        self.check = check
        self.checkers: List[RunChecker] = []
        if check:
            for channel, controller in enumerate(self.controllers):
                checker = RunChecker(controller)
                self.checkers.append(checker)
                self.attach(checker, channel=channel)
        #: Requests in flight toward the controllers: (arrival, seq, request).
        self._to_controller: List[Tuple[int, int, MemoryRequest]] = []
        #: Fills in flight toward cores: (deliver, seq, thread, line).
        self._to_cores: List[Tuple[int, int, int, int]] = []
        self._in_transit: List[List[Dict[RequestKind, int]]] = [
            [
                {RequestKind.READ: 0, RequestKind.WRITE: 0}
                for _ in range(config.num_channels)
            ]
            for _ in range(config.num_cores)
        ]
        #: Interface queues: requests that arrived at their channel's
        #: controller but were NACKed (buffer partition full), indexed
        #: [channel][thread].
        self._awaiting_mc: List[List[Deque[MemoryRequest]]] = [
            [deque() for _ in range(config.num_cores)]
            for _ in range(config.num_channels)
        ]
        #: Dirty set of non-empty interface queues, so the per-cycle
        #: retry scan touches only (channel, thread) pairs with queued
        #: requests instead of all channels × all threads.
        self._awaiting_nonempty: Set[Tuple[int, int]] = set()
        #: The same occupancy, indexed per channel: the acceptance
        #: probe and the retry pass walk only occupied channels and
        #: skip empty shards outright.
        self._awaiting_by_channel: List[Set[int]] = [
            set() for _ in range(config.num_channels)
        ]
        #: Per-channel buffer version at the last all-rejected
        #: acceptance probe (-1 = must probe).  Acceptance can only
        #: flip to True when the channel's buffer occupancy moves, so
        #: an unchanged version proves the probe would repeat itself.
        self._probe_versions: List[int] = [-1] * config.num_channels
        #: Writes sitting in each interface queue, indexed
        #: [channel][thread] — consulted on every writeback submit for
        #: credit flow control, so counted incrementally.
        self._awaiting_writes: List[List[int]] = [
            [0] * config.num_cores for _ in range(config.num_channels)
        ]
        self._fill_seq = 0
        self.now = 0
        #: Engine instrumentation: cycles stepped vs cycles skipped,
        #: plus targeting-call and component-tick counts for the
        #: engine-internals block in the throughput benchmarks.
        self.engine_steps = 0
        self.engine_cycles_skipped = 0
        self.engine_event_target_calls = 0
        self.engine_component_ticks = 0
        # -- wake-index state (None = cycle engine) ---------------------
        # Slot layout: controllers at [0, num_channels), cores after.
        # Each controller gets its own shard; cores share one, so a
        # channel's wake churn touches only that channel's heap.
        self._core_slot0 = config.num_channels
        self._num_slots = config.num_channels + config.num_cores
        self._windex: Optional[WakeIndex] = None
        if config.engine == "event":
            self._windex = WakeIndex(
                list(range(config.num_channels))
                + [config.num_channels] * config.num_cores
            )
        #: Exclusive cycle each component's accounting has reached.  An
        #: un-due component is not touched at all while the engine runs
        #: ahead; its skipped span is applied lazily (catch-up) when it
        #: next becomes due, receives a delivery, or at a sync barrier
        #: (sample boundaries, snapshots, end of run).
        self._synced: List[int] = [0] * self._num_slots
        #: Components that must tick on the current stepped cycle.
        self._due_flag: List[bool] = [False] * self._num_slots
        #: Slots whose published wake is stale (touched since the last
        #: publish); refreshed in one pass per targeting call.
        self._dirty_slots: List[int] = list(range(self._num_slots))
        self._dirty_flag: List[bool] = [True] * self._num_slots
        #: Cores holding a NACK-blocked head writeback, mapped to the
        #: (channel, buffer version) of the last blocked verdict; the
        #: unblock probe re-runs only when the version moved.
        self._wb_blocked: Dict[int, Tuple[int, int]] = {}
        self.cores: List[OooCore] = []
        keys = self.prewarm_keys(config, self.profiles)
        for core_id, workload in enumerate(self.profiles):
            base_address = core_id * config.thread_address_stride
            generator = workload.make_trace(config.seed, base_address)
            hierarchy = CacheHierarchy(config.l1i, config.l1d, config.l2)
            self._prewarm(
                hierarchy, workload, config.seed, base_address, keys[core_id]
            )
            core = OooCore(
                core_id=core_id,
                config=config.core,
                trace=generator,
                hierarchy=hierarchy,
                submit=self._make_submit(core_id),
            )
            self.cores.append(core)

    def attach(self, observer: Observer, channel: Optional[int] = None) -> None:
        """Subscribe ``observer`` to this system's events.

        With ``channel`` None it hears every event: the system's own
        (submit, fill, sample) and every controller's and channel
        scheduler's.  With a channel index it hears only that
        controller's and channel scheduler's.  Either way :meth:`run`
        finalizes it.  Observers attached to one emitter are served in
        attach order through a :class:`~repro.observer.Fanout`.
        """
        controllers = self.controllers if channel is None else [self.controllers[channel]]
        for controller in controllers:
            controller.observer = subscribe(controller.observer, observer)
            controller.channel_scheduler.observer = controller.observer
        if channel is None:
            self.observer = subscribe(self.observer, observer)
        self._subscribers.append(observer)

    #: Memoized warm L2 images, pickled (``pickle.dumps`` of
    #: :meth:`Cache.snapshot`), keyed by :meth:`prewarm_keys`: the image
    #: is a pure function of the prewarm stream and the whole L2
    #: geometry, so a restore is bit-identical to warming from the
    #: stream — the dominant cost of building a system, paid repeatedly
    #: by benchmark rounds and sweeps that rebuild the same workloads.
    #: Pickled, an image is ~8x smaller than as tuples and costs ~1 ms to
    #: load, and the bytes cross process boundaries as they are (see
    #: :func:`repro.sim.parallel.execute_exchanging`).  Bounded,
    #: least-recently-inserted eviction.
    _prewarm_memo: "OrderedDict[Tuple, bytes]" = OrderedDict()
    _PREWARM_MEMO_CAP = 64

    @staticmethod
    def prewarm_keys(
        config: SystemConfig, profiles: Sequence
    ) -> List[Optional[Tuple]]:
        """Each core's warm-L2 memo key: (workload, seed, base address, L2).

        ``None`` marks a core whose image is never memoized, exported
        or adopted.  A trace read from a file (``reads_file``) is keyed
        by its path, not by the file's content, so an image could be
        stale; an unhashable workload (e.g. a mutable trace replay)
        cannot be a key at all.
        """
        keys: List[Optional[Tuple]] = []
        for core_id, workload in enumerate(profiles):
            key: Optional[Tuple] = None
            if not getattr(workload, "reads_file", False):
                key = (
                    workload,
                    config.seed,
                    core_id * config.thread_address_stride,
                    config.l2,
                )
                try:
                    hash(key)
                except TypeError:
                    key = None
            keys.append(key)
        return keys

    @classmethod
    def prewarm_images(cls, keys: Iterable[Optional[Tuple]]) -> Dict[Tuple, bytes]:
        """The memoized images of ``keys``; ``None`` and misses are skipped."""
        memo = cls._prewarm_memo
        return {key: memo[key] for key in keys if key is not None and key in memo}

    @classmethod
    def adopt_images(cls, images: Dict[Tuple, bytes]) -> None:
        """Memoize ``images`` (from :meth:`prewarm_images`, maybe another process's)."""
        memo = cls._prewarm_memo
        memo.update(images)
        while len(memo) > cls._PREWARM_MEMO_CAP:
            memo.popitem(last=False)

    @classmethod
    def _prewarm(
        cls,
        hierarchy: CacheHierarchy,
        workload,
        seed: int,
        base_address: int,
        key: Optional[Tuple],
    ) -> None:
        """Warm the L2 with the workload's prewarm stream.

        The stream comes from a twin of the live trace, so measurement
        starts in cache steady state without perturbing the replay.
        ``key`` (from :meth:`prewarm_keys`) looks the image up in the
        memo first and stores it there after a cold warm-up.
        """
        l2 = hierarchy.l2
        blob = cls._prewarm_memo.get(key) if key is not None else None
        if blob is not None:
            # The unpickled image is ~9k small tuples, freed by
            # reference counting as soon as restore returns.  Allocating
            # them with the collector on runs ~13 young collections per
            # restore, and those cascade into full ones: over the
            # manycore benchmark's 10 builds, 2.5x the collections (21
            # full vs 8) and ~10% more wall time without this pause.
            enabled = gc.isenabled()
            gc.disable()
            try:
                l2.restore(pickle.loads(blob))
            finally:
                if enabled:
                    gc.enable()
        else:
            line_of = hierarchy.line_of
            warm = l2.warm
            for addresses, writes in workload.prewarm_stream(seed, base_address):
                warm(map(line_of, addresses), writes)
            if key is not None:
                image = pickle.dumps(l2.snapshot(), pickle.HIGHEST_PROTOCOL)
                cls.adopt_images({key: image})
        l2.hits = 0
        l2.misses = 0
        l2.writebacks = 0
        hierarchy.pending_writebacks.clear()

    # -- flow control ------------------------------------------------------

    def _make_submit(self, core_id: int):
        def submit(request: MemoryRequest) -> bool:
            request.channel = self.address_map.channel_of(request.address)
            if request.kind is RequestKind.WRITE:
                # Writebacks are credit-controlled end to end: the core's
                # writeback queue absorbs NACK back-pressure, exactly the
                # paper's per-thread write-buffer partitioning.
                controller = self.controllers[request.channel]
                in_transit = self._in_transit[core_id][request.channel][
                    RequestKind.WRITE
                ]
                waiting_writes = self._awaiting_writes[request.channel][core_id]
                occupied = (
                    controller.buffers.occupancy(core_id, RequestKind.WRITE)
                    + in_transit
                    + waiting_writes
                )
                if occupied >= controller.buffers.write_capacity:
                    return False
                self._in_transit[core_id][request.channel][RequestKind.WRITE] += 1
            # Reads are bounded by the core's MSHR file; requests that
            # find the transaction-buffer partition full on arrival wait
            # at the controller interface and retry each cycle.
            arrival = self.now + self.config.front_latency
            heapq.heappush(self._to_controller, (arrival, request.seq, request))
            if self.observer is not None:
                self.observer.on_submit(request, self.now)
            return True

        return submit

    def _deliver_to_controller(self, now: int) -> None:
        """Move arrived requests into their controllers, oldest first.

        A request whose buffer partition is full waits in its thread's
        interface queue (the paper's NACK back-pressure); it retries
        every cycle and enters in arrival order.
        """
        while self._to_controller and self._to_controller[0][0] <= now:
            _, _, request = heapq.heappop(self._to_controller)
            if request.kind is RequestKind.WRITE:
                self._in_transit[request.thread_id][request.channel][
                    request.kind
                ] -= 1
                self._awaiting_writes[request.channel][request.thread_id] += 1
            self._awaiting_mc[request.channel][request.thread_id].append(request)
            self._awaiting_nonempty.add((request.channel, request.thread_id))
            self._awaiting_by_channel[request.channel].add(request.thread_id)
        if not self._awaiting_nonempty:
            return
        # Retry pass, channel-major then thread order — the same
        # lexicographic (channel, thread) sequence the old sorted() pass
        # produced, without building the sorted temporary.  The
        # can_accept pre-gate is exactly the reserve predicate, so a
        # rejected head takes the same one-NACK accounting a failed
        # try_enqueue would have charged, without constructing the
        # enqueue attempt (and, on the event engine, without waking a
        # deferred controller).
        indexed = self._windex is not None
        num_threads = self.config.num_cores
        for channel, threads in enumerate(self._awaiting_by_channel):
            if not threads:
                continue
            controller = self.controllers[channel]
            channel_queues = self._awaiting_mc[channel]
            can_accept = controller.buffers.can_accept
            drained: List[int] = []
            for thread_id in range(num_threads):
                if thread_id not in threads:
                    continue
                thread_queue = channel_queues[thread_id]
                while thread_queue:
                    head = thread_queue[0]
                    if not can_accept(thread_id, head.kind):
                        controller.skip_interface_nacks(thread_id, 1)
                        break
                    if indexed:
                        # The acceptance mutates controller state: catch
                        # its deferred span up first (arrival stamps and
                        # the FQ real clock must read post-span state)
                        # and make sure it ticks this cycle.
                        self._catch_up_controller(channel, now)
                        self._due_flag[channel] = True
                    if not controller.try_enqueue(head):  # pragma: no cover
                        break  # unreachable: can_accept gates reserve
                    thread_queue.popleft()
                    if head.kind is RequestKind.WRITE:
                        self._awaiting_writes[channel][thread_id] -= 1
                if not thread_queue:
                    drained.append(thread_id)
            for thread_id in drained:
                threads.discard(thread_id)
                self._awaiting_nonempty.discard((channel, thread_id))

    # -- main loop --------------------------------------------------------------

    def step(self) -> None:
        """Advance the whole system by one cycle."""
        now = self.now
        if self._windex is not None:
            # Manual stepping on an event-engine system: catch every
            # deferred component up first (normally a no-op — the
            # event loop syncs on exit) and mark all wakes stale
            # after, since this full step ticks everything.
            self._sync_all(now)
        observer = self.observer
        if observer is not None and observer.next_sample <= now:
            # Sample at the top of the cycle, before any component
            # moves: both engines step every sample boundary (the event
            # engine clamps its skip targets to ``next_sample``), so on
            # or off, per-cycle or event-driven, the sampler observes
            # the exact same top-of-boundary state.
            observer.on_sample(now)
        self._deliver_to_controller(now)
        for controller in self.controllers:
            for request in controller.tick(now):
                line = request.address >> self.address_map.offset_bits
                self._fill_seq += 1
                heapq.heappush(
                    self._to_cores,
                    (
                        now + self.config.back_latency,
                        self._fill_seq,
                        request.thread_id,
                        line,
                    ),
                )

        while self._to_cores and self._to_cores[0][0] <= now:
            _, _, thread_id, line = heapq.heappop(self._to_cores)
            if observer is not None:
                observer.on_fill(thread_id, line, now)
            self.cores[thread_id].on_fill(line, now)

        for core in self.cores:
            core.tick(now)

        self.now = now + 1
        if self._windex is not None:
            self._after_full_step()

    # -- event-driven engine ------------------------------------------------
    #
    # Every component publishes the earliest cycle at which its tick
    # could do unskippable work — even while active: controllers from
    # their timing-ledger sleep times, in-flight data, and refresh
    # deadlines; cores from their next retire/fetch/local-completion
    # event; the interconnect heaps from their head timestamps.  The
    # loop jumps straight to the minimum, and results are bit-identical
    # to stepping every cycle.  Wake times are conservative bounds:
    # answering early just steps a no-op cycle, which is always safe.
    #
    # Event targeting reads a sharded lazy min-heap of published wakes
    # (the wake index) instead of scanning every component, and stepped
    # cycles tick only the components that are actually due (heap pop)
    # or receive a delivery.  Un-due components are not even charged
    # their skip accounting per cycle — each keeps a ``_synced``
    # watermark and is caught up lazily, in one bulk
    # ``skip``/``skip_cycles`` call, when it next matters.  Safety rests
    # on the WAKE400 contracts: a published wake is a conservative bound
    # that cannot move earlier while the component is untouched, so
    # every cycle skipped or deferred is provably a no-op for that
    # component.

    def _writeback_blocked(self, core: OooCore) -> bool:
        """True when the core's head writeback would be NACKed this cycle.

        The predicate mirrors the submit-time credit check exactly; its
        inputs (buffer occupancy, in-transit counts, interface-queue
        depth) only change at stepped cycles, so a head rejected at the
        start of a span stays rejected throughout it.
        """
        line = core.hierarchy.pending_writebacks[0]
        address = core.hierarchy.line_address(line)
        channel = self.address_map.channel_of(address)
        controller = self.controllers[channel]
        occupied = (
            controller.buffers.occupancy(core.core_id, RequestKind.WRITE)
            + self._in_transit[core.core_id][channel][RequestKind.WRITE]
            + self._awaiting_writes[channel][core.core_id]
        )
        return occupied >= controller.buffers.write_capacity

    def _acceptance_due(self) -> bool:
        """True when some NACKed interface-queue head would be accepted.

        Version-gated per channel: acceptance is a pure function of the
        channel's buffer occupancy, which moves only on reserve/release
        (stepped-cycle events that bump ``buffers.version``), so a
        channel whose version is unchanged since its last all-rejected
        probe is skipped without touching its queues — and channels
        with no occupied queue cost nothing at all.
        """
        versions = self._probe_versions
        controllers = self.controllers
        queues = self._awaiting_mc
        for channel, threads in enumerate(self._awaiting_by_channel):
            if not threads:
                continue
            buffers = controllers[channel].buffers
            version = buffers.version
            if version == versions[channel]:
                continue
            channel_queues = queues[channel]
            can_accept = buffers.can_accept
            for thread_id in threads:  # det: allow(pure any-probe, order-free)
                if can_accept(thread_id, channel_queues[thread_id][0].kind):
                    return True
            versions[channel] = version
        return False

    def _catch_up_controller(self, channel: int, now: int) -> None:
        """Apply a deferred controller's skipped span up to ``now``."""
        synced = self._synced
        if synced[channel] < now:
            self.controllers[channel].skip_cycles(synced[channel], now)
            synced[channel] = now

    def _mark_dirty(self, slot: int) -> None:
        """Queue ``slot`` for a wake republish at the next targeting call."""
        if not self._dirty_flag[slot]:
            self._dirty_flag[slot] = True
            self._dirty_slots.append(slot)

    def _sync_all(self, now: int) -> None:
        """Catch every deferred component up to ``now``.

        The barrier before anything that reads whole-system state:
        sampling deadlines, snapshots, manual ``step()``, and
        the end of an event run.
        """
        synced = self._synced
        controllers = self.controllers
        for channel in range(self._core_slot0):
            if synced[channel] < now:
                controllers[channel].skip_cycles(synced[channel], now)
                synced[channel] = now
        base = self._core_slot0
        for i, core in enumerate(self.cores):
            slot = base + i
            if synced[slot] < now:
                core.skip(synced[slot], now)
                synced[slot] = now

    def _after_full_step(self) -> None:
        """Reconcile index state after a broadcast ``step()``.

        Everything just ticked: advance all watermarks, clear consumed
        due flags, mark every wake stale, and refresh the writeback
        bookkeeping.
        """
        now = self.now
        synced = self._synced
        due = self._due_flag
        for slot in range(self._num_slots):
            synced[slot] = now
            due[slot] = False
            self._mark_dirty(slot)
        for i, core in enumerate(self.cores):
            self._note_core_wb(i, core)

    def _note_core_wb(self, core_id: int, core: OooCore) -> None:
        """Refresh ``core_id``'s entry in the blocked-writeback map.

        Called right after the core ticks: a surviving head writeback
        was NACKed by that tick's drain, so it is blocked at the
        channel's current buffer version and stays blocked until the
        version moves.
        """
        if core.has_blocked_writeback():
            line = core.hierarchy.pending_writebacks[0]
            address = core.hierarchy.line_address(line)
            channel = self.address_map.channel_of(address)
            self._wb_blocked[core_id] = (
                channel, self.controllers[channel].buffers.version
            )
        elif core_id in self._wb_blocked:
            del self._wb_blocked[core_id]

    def _wb_unblock_due(self) -> bool:
        """True when some blocked head writeback would now be accepted.

        Only channels whose buffer version moved since the blocked
        verdict are re-probed; a still-blocked verdict refreshes the
        stamp so the next call is O(1) again.
        """
        wb = self._wb_blocked
        controllers = self.controllers
        cores = self.cores
        for core_id, (channel, version) in wb.items():
            current = controllers[channel].buffers.version
            if current == version:
                continue
            if self._writeback_blocked(cores[core_id]):
                wb[core_id] = (channel, current)
            else:
                return True
        return False

    def _event_target(self, limit: int) -> int:
        """Earliest cycle in ``[now, limit]`` that must be stepped.

        The O(1) direct sources (sample deadline, interconnect heap
        heads) are checked inline, the version-gated probes cover
        acceptance and writeback unblocks, and everything else — every
        controller and core — is one sharded heap peek.
        """
        now = self.now
        self.engine_event_target_calls += 1
        windex = self._windex
        assert windex is not None
        dirty = self._dirty_slots
        if dirty:
            # Republish stale wakes (components touched since their
            # last publish) in one pass — before any early return, so a
            # component ticked last cycle is back in the heap by the
            # time pop_due decides who is due, even when this cycle is
            # stepped for an unrelated reason (delivery, acceptance).
            flags = self._dirty_flag
            base = self._core_slot0
            controllers = self.controllers
            cores = self.cores
            for slot in dirty:
                flags[slot] = False
                if slot < base:
                    windex.publish(slot, controllers[slot].next_event_time(now))
                else:
                    windex.publish(slot, cores[slot - base].wake_time(now))
            del dirty[:]
        target = limit
        if self.observer is not None:
            # Sampling deadlines are events: never skip across one, so
            # the boundary cycle is stepped and sampled at its top.
            deadline = self.observer.next_sample
            if deadline <= now:
                return now
            if deadline < target:
                target = deadline
        if self._to_controller:
            head = self._to_controller[0][0]
            if head <= now:
                return now
            if head < target:
                target = head
        if self._to_cores:
            head = self._to_cores[0][0]
            if head <= now:
                return now
            if head < target:
                target = head
        # A NACKed interface-queue head that would now be accepted must
        # enter via a real step; heads that stay rejected are pure
        # counter traffic, replicated in bulk by _skip_span.
        if self._acceptance_due():
            return now
        wake = windex.min_wake()
        if wake <= now:
            return now
        if wake < target:
            target = wake
        if self._wb_blocked and self._wb_unblock_due():
            return now
        return target

    def _skip_span(self, target: int) -> None:
        """Jump over the no-op cycles ``[self.now, target)``.

        No component is touched: their accounting is applied lazily by
        the catch-up hooks, so a skip costs O(occupied interface
        queues) — usually zero — regardless of core count.
        """
        now = self.now
        span = target - now
        for channel, thread_id in self._awaiting_nonempty:  # det: allow(commutative counter adds, order-free)
            # One rejected head-of-queue retry per cycle per queue.
            self.controllers[channel].skip_interface_nacks(thread_id, span)
        self.engine_cycles_skipped += span
        self.now = target

    def _sparse_step(self) -> None:
        """Step one cycle, ticking only due components.

        Mirrors :meth:`step`'s ordering exactly — sample, delivery,
        controllers (index order), fill drain, cores (index order) —
        but consults the due flags (heap pops, delivery acceptances,
        fill arrivals, writeback unblocks) instead of broadcasting.
        Deferred components are caught up on demand before any real
        work touches them.
        """
        now = self.now
        windex = self._windex
        assert windex is not None
        observer = self.observer
        if observer is not None and observer.next_sample <= now:
            # Samplers read whole-system state at the top of the
            # boundary cycle: catch every deferred component up first
            # so they observe exactly what the oracle's broadcast
            # engine would have produced.
            self._sync_all(now)
            observer.on_sample(now)
        due = self._due_flag
        windex.pop_due(now, due)
        self._deliver_to_controller(now)
        controllers = self.controllers
        synced = self._synced
        base = self._core_slot0
        back_latency = self.config.back_latency
        offset_bits = self.address_map.offset_bits
        ticks = 0
        for channel in range(base):
            if not due[channel]:
                continue
            due[channel] = False
            controller = controllers[channel]
            if synced[channel] < now:
                controller.skip_cycles(synced[channel], now)
            for request in controller.tick(now):
                line = request.address >> offset_bits
                self._fill_seq += 1
                heapq.heappush(
                    self._to_cores,
                    (now + back_latency, self._fill_seq,
                     request.thread_id, line),
                )
            synced[channel] = now + 1
            self._mark_dirty(channel)
            ticks += 1
        wb = self._wb_blocked
        if wb:
            # Completions above may have released write entries; a core
            # whose head writeback just unblocked must tick this cycle
            # to drain it, exactly when the broadcast engine would.
            for core_id, (channel, version) in wb.items():
                current = controllers[channel].buffers.version
                if current == version:
                    continue
                if self._writeback_blocked(self.cores[core_id]):
                    wb[core_id] = (channel, current)
                else:
                    due[base + core_id] = True
        to_cores = self._to_cores
        cores = self.cores
        while to_cores and to_cores[0][0] <= now:
            _, _, thread_id, line = heapq.heappop(to_cores)
            slot = base + thread_id
            if synced[slot] < now:
                cores[thread_id].skip(synced[slot], now)
                synced[slot] = now
            if observer is not None:
                observer.on_fill(thread_id, line, now)
            cores[thread_id].on_fill(line, now)
            due[slot] = True
        for i, core in enumerate(cores):
            slot = base + i
            if not due[slot]:
                continue
            due[slot] = False
            if synced[slot] < now:
                core.skip(synced[slot], now)
            core.tick(now)
            synced[slot] = now + 1
            self._mark_dirty(slot)
            self._note_core_wb(i, core)
            ticks += 1
        self.engine_component_ticks += ticks
        self.now = now + 1

    def _run_event(self, limit: int) -> None:
        while self.now < limit:
            target = self._event_target(limit)
            if target > self.now:
                self._skip_span(target)
                if self.now >= limit:
                    break
            self.engine_steps += 1
            self._sparse_step()
        # Leave no deferred accounting behind: measurement snapshots
        # and observer finalization read whole-system state.
        self._sync_all(self.now)

    def run_cycles(self, cycles: int, fast_forward: bool = True) -> None:
        """Run until ``self.now`` reaches its current value plus ``cycles``.

        ``config.engine`` selects the loop: "event" jumps between
        component wake times through the sharded wake index, "cycle"
        steps every cycle (the differential oracle).
        ``fast_forward=False`` forces the per-cycle loop regardless of
        the configured engine.
        """
        limit = self.now + cycles
        if not fast_forward or self.config.engine != "event":
            while self.now < limit:
                self.step()
            return
        self._run_event(limit)

    # -- measurement ----------------------------------------------------------------

    def _snapshot(self) -> Dict[str, float]:
        snap: Dict[str, float] = {
            "cycle": self.now,
            "data_busy": sum(dram.data_busy_cycles for dram in self.drams),
            "bank_busy": sum(
                bank.busy_cycles_at(self.now)
                for dram in self.drams
                for bank in dram.banks
            ),
            "refreshes": sum(dram.refresh_count for dram in self.drams),
        }
        for t in range(self.config.num_cores):
            core = self.cores[t]
            snap[f"inst_{t}"] = core.stats.instructions
            snap[f"core_cycles_{t}"] = core.stats.cycles
            snap[f"lat_sum_{t}"] = sum(
                c.stats.read_latency_sum[t] for c in self.controllers
            )
            snap[f"reads_{t}"] = sum(c.stats.read_count[t] for c in self.controllers)
            snap[f"writes_{t}"] = sum(c.stats.write_count[t] for c in self.controllers)
            snap[f"cas_cycles_{t}"] = sum(
                c.stats.cas_cycles[t] for c in self.controllers
            )
            snap[f"nacks_{t}"] = (
                sum(c.stats.requests_nacked[t] for c in self.controllers)
                + core.stats.nacks
            )
        return snap

    def run(self, cycles: int, warmup: int = 0) -> SimResult:
        """Run ``warmup`` then ``cycles`` cycles; report the measured window."""
        if warmup > 0:
            self.run_cycles(warmup)
        before = self._snapshot()
        self.run_cycles(cycles)
        after = self._snapshot()
        for observer in self._subscribers:
            observer.finalize(self.now)
        return self._result(before, after)

    def check_summary(self) -> Dict[str, int]:
        """Aggregate checker counters across channels (empty when off)."""
        totals: Dict[str, int] = {}
        for checker in self.checkers:
            for key, value in checker.summary().items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def _result(self, before: Dict[str, float], after: Dict[str, float]) -> SimResult:
        window = int(after["cycle"] - before["cycle"])
        threads: List[ThreadResult] = []
        for t in range(self.config.num_cores):
            reads = int(after[f"reads_{t}"] - before[f"reads_{t}"])
            lat_sum = after[f"lat_sum_{t}"] - before[f"lat_sum_{t}"]
            mean_lat = (lat_sum / reads) if reads else 0.0
            # Latency is measured controller-arrival to data-return; add
            # the on-chip round trip so it is core-observed, as in Fig 1.
            if reads:
                mean_lat += self.config.front_latency + self.config.back_latency
            cas = after[f"cas_cycles_{t}"] - before[f"cas_cycles_{t}"]
            # Utilizations are relative to total peak bandwidth across
            # all channels.
            bus_window = window * self.config.num_channels
            threads.append(
                ThreadResult(
                    name=self.profiles[t].name,
                    instructions=after[f"inst_{t}"] - before[f"inst_{t}"],
                    cycles=int(after[f"core_cycles_{t}"] - before[f"core_cycles_{t}"]),
                    mean_read_latency=mean_lat,
                    bus_utilization=(cas / bus_window) if window else 0.0,
                    reads=reads,
                    writes=int(after[f"writes_{t}"] - before[f"writes_{t}"]),
                    nacks=int(after[f"nacks_{t}"] - before[f"nacks_{t}"]),
                )
            )
        data_busy = after["data_busy"] - before["data_busy"]
        bank_busy = after["bank_busy"] - before["bank_busy"]
        bus_window = window * self.config.num_channels
        denom = (
            window
            * self.dram.num_banks
            * self.dram.num_ranks
            * self.config.num_channels
        )
        # Execution-facts block (engine_* keys) — see repro.obs.engine.
        extras = engine_extras(self)
        return SimResult(
            policy=self.controller.policy.name,
            cycles=window,
            threads=threads,
            data_bus_utilization=(data_busy / bus_window) if window else 0.0,
            bank_utilization=(bank_busy / denom) if denom else 0.0,
            refreshes=int(after["refreshes"] - before["refreshes"]),
            extras=extras,
        )


def comparable_result(result: SimResult) -> SimResult:
    """Strip engine instrumentation so results compare across engines.

    The ``engine_*`` extras describe how the run was executed (steps vs
    skipped cycles), not what it computed; differential checks between
    the event and cycle engines must ignore them.  The prefix is owned
    by :mod:`repro.obs.engine`, next to the code that emits the keys.
    """
    extras = {
        key: value
        for key, value in result.extras.items()
        if not key.startswith(ENGINE_EXTRA_PREFIX)
    }
    return replace(result, extras=extras)
