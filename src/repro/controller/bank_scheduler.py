"""Per-bank scheduler: request selection and command generation.

Each SDRAM bank has a logical priority queue and a bank scheduler
(paper §2.2, Figure 2).  Every cycle the bank scheduler nominates at
most one candidate SDRAM command to the channel scheduler:

* the next command of the pending request it currently favours
  (activate for a closed bank, CAS for an open-row hit, precharge for
  a conflict), or
* a closed-page auto-precharge when the open row has no pending
  accesses left.

Under FR policies the favourite is recomputed every cycle with
first-ready priority.  Under the FQ bank rule (paper §3.3) the bank
commits to the earliest-virtual-finish-time request once the bank has
been active for ``x`` cycles, bounding priority-inversion blocking
time at the cost of some data-bus utilization.

Selection is one method, :meth:`BankScheduler.candidate`, for every
policy (docs/INTERNALS.md, "Hot-path kernels").  The queue is kept in
``(arrival_time, seq)`` order, and every policy's key is a per-thread
prefix followed by ``(arrival_time, seq)``; under deferred VTMS
accounting the prefix is the VFT (or VST), which reads only the
thread's registers and the Table 3 class of the request's row.  So a
thread's queued requests of one command kind share a level and a
prefix, and only the oldest of each such group is keyed
(:meth:`BankScheduler.key`), from live registers.  The scheduler keeps
read/write and row-hit counts over its queue, so the common queue
shapes (closed bank, conflicts only, all-hit reads) pick the min-key
request under one readiness probe, "which command kinds does this bank
need?" (:meth:`kind_mask`) is O(1), and wake bounds come from the DRAM
system's legality kernel instead of a queue walk.
"""

from __future__ import annotations

from typing import Any, List, Optional, Set, Tuple

from ..core.vtms import VtmsState
from ..dram.commands import CommandType
from ..dram.dram_system import DramSystem
from ..dram.legality import MASK_ACT, MASK_PRE, MASK_READ, MASK_WRITE
from ..policy.base import SchedulingPolicy
from .request import MemoryRequest


class CandidateCommand:
    """A command a bank scheduler offers to the channel scheduler."""

    __slots__ = (
        "kind",
        "rank",
        "bank",
        "row",
        "ready",
        "key",
        "request",
        "charge_thread",
        "charge_arrival",
    )

    def __init__(
        self,
        kind: CommandType,
        rank: int,
        bank: int,
        row: int,
        ready: bool,
        key: Tuple,
        request: Optional[MemoryRequest],
        charge_thread: Optional[int],
        charge_arrival: float,
    ):
        self.kind = kind
        self.rank = rank
        self.bank = bank
        self.row = row
        self.ready = ready
        #: Policy ordering tuple of the request being served (lower =
        #: higher priority).  Auto-precharges sort after all
        #: request-driven work.
        self.key = key
        self.request = request
        #: Thread charged for this command in the VTMS update (the
        #: request's thread, or for auto-precharge the thread that
        #: opened the row).
        self.charge_thread = charge_thread
        #: Arrival time a_i^k used by the VTMS update equations.
        self.charge_arrival = charge_arrival

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CandidateCommand(kind={self.kind!r}, rank={self.rank}, "
            f"bank={self.bank}, row={self.row}, ready={self.ready}, "
            f"key={self.key!r}, request={self.request!r})"
        )


#: Ordering key that sorts auto-precharge candidates after any request.
_AUTO_PRECHARGE_KEY = (float("inf"),)

#: Wake bound meaning "this bank has no work at all"; stays cached
#: until a request arrives for the bank.
IDLE_BOUND = 1 << 62


class BankScheduler:
    """Scheduler and pending-request queue for one (rank, bank) pair."""

    def __init__(
        self,
        rank: int,
        bank: int,
        dram: DramSystem,
        policy: SchedulingPolicy,
        vtms: Optional[VtmsState],
        inversion_bound: int,
        row_policy: str = "closed",
    ):
        if row_policy not in ("closed", "open"):
            raise ValueError(f"row_policy must be 'closed' or 'open', got {row_policy!r}")
        self.rank = rank
        self.bank = bank
        self.dram = dram
        #: Direct reference to this scheduler's Bank object (created
        #: once by the DRAM system and never replaced).
        self._bank = dram.bank(rank, bank)
        self.policy = policy
        self.vtms = vtms
        self.inversion_bound = inversion_bound
        #: Flat (rank, bank) index into the per-thread VTMS bank
        #: registers — distinct banks in distinct ranks are distinct
        #: VTMS resources.  The legality kernel uses the same flat
        #: numbering.
        self.vtms_bank_index = rank * dram.num_banks + bank
        #: "closed" precharges a row once its pending accesses drain
        #: (the paper's choice); "open" leaves rows open until a
        #: conflicting request or a refresh needs the bank.
        self.row_policy = row_policy
        #: Write-drain gating (set each cycle by the controller): when
        #: False, write requests are held back so reads proceed without
        #: bus-turnaround penalties.
        self.writes_eligible = True
        #: Pending requests in ``(arrival_time, seq)`` order.
        self.queue: List[MemoryRequest] = []
        #: Queue-shape counters over the FULL queue (ignoring the
        #: write-drain gate): request counts by kind and how many of
        #: each hit the currently open row.  They make the candidate
        #: prologue and :meth:`kind_mask` O(1).
        self._n_read = 0
        self._n_write = 0
        self._n_read_hit = 0
        self._n_write_hit = 0
        #: The open row the hit counters were computed against; when the
        #: bank's live row differs (state mutated without
        #: :meth:`on_issue`, e.g. tests poking the DRAM directly), the
        #: counters self-heal with a recount.
        self._counted_row: Optional[int] = None
        # Bookkeeping for charging auto-precharges to the thread that
        # opened the row.
        self.open_row_thread: Optional[int] = None
        self.open_row_arrival: float = 0.0
        #: The policy's key function.
        self._key_of = policy.request_key
        #: Deferred VTMS accounting (paper §3.2): :meth:`key` stamps
        #: each VFT/VST from live registers before the key reads it.
        #: Arrival accounting fixes the VFT at accept instead.
        self._deferred = policy.uses_vtms and not policy.arrival_accounting
        if policy.uses_vtms and vtms is None:
            raise ValueError(f"policy {policy.name} requires VTMS state")

    # -- queue management --------------------------------------------------

    def add(self, request: MemoryRequest) -> None:
        """Queue ``request`` in ``(arrival_time, seq)`` order.

        Inserts from the tail, so the order holds for any caller; the
        controller accepts in that order already, so there the scan
        stops at once.
        """
        self._ensure_counts()
        queue = self.queue
        age = (request.arrival_time, request.seq)
        i = len(queue)
        while i and (queue[i - 1].arrival_time, queue[i - 1].seq) > age:
            i -= 1
        queue.insert(i, request)
        if request.is_read:
            self._n_read += 1
            if request.row == self._counted_row:
                self._n_read_hit += 1
        else:
            self._n_write += 1
            if request.row == self._counted_row:
                self._n_write_hit += 1

    def remove(self, request: MemoryRequest) -> None:
        self._ensure_counts()
        self.queue.remove(request)
        if request.is_read:
            self._n_read -= 1
            if request.row == self._counted_row:
                self._n_read_hit -= 1
        else:
            self._n_write -= 1
            if request.row == self._counted_row:
                self._n_write_hit -= 1

    def _ensure_counts(self) -> None:
        if self._bank.open_row != self._counted_row:
            self._recount_hits()

    def _recount_hits(self) -> None:
        """Rebuild the row-hit counters against the bank's live open row."""
        open_row = self._bank.open_row
        read_hit = write_hit = 0
        if open_row is not None:
            for request in self.queue:
                if request.row == open_row:
                    if request.is_read:
                        read_hit += 1
                    else:
                        write_hit += 1
        self._n_read_hit = read_hit
        self._n_write_hit = write_hit
        self._counted_row = open_row

    def __len__(self) -> int:
        return len(self.queue)

    # -- keys ------------------------------------------------------------------

    def key(self, request: MemoryRequest) -> Tuple:
        """``request``'s policy ordering key, from live state.

        Under deferred accounting the request's VST and VFT are first
        stamped with Eqs 3 and 7 over its thread's registers now and
        the Table 3 service time of the bank's row state, so
        :meth:`SchedulingPolicy.request_key` reads current values.
        Only the keyed requests carry fresh stamps.
        """
        if self._deferred:
            thread = self.vtms.threads[request.thread_id]  # type: ignore[union-attr]
            index = self.vtms_bank_index
            request.virtual_start_time = thread.start_time_estimate(index)
            request.virtual_finish_time = thread.finish_time_estimate(
                index, self._bank.state_service_time(request.row)
            )
        return self._key_of(request)

    def _min_key_head(
        self, visible: List[MemoryRequest]
    ) -> Tuple[MemoryRequest, Tuple]:
        """The min-key request of ``visible`` and its key.

        Keys only each thread's oldest request per Table 3 class (a hit
        of the open row or not): the rest of such a group share its
        VFT and key prefix and sort after it on ``(arrival_time, seq)``.
        """
        key_of = self.key
        if len(visible) == 1:
            return visible[0], key_of(visible[0])
        open_row = self._bank.open_row
        seen: Set[int] = set()
        best = visible[0]
        best_key: Any = None
        for request in visible:
            group = 2 * request.thread_id + (request.row == open_row)
            if group in seen:
                continue
            seen.add(group)
            key = key_of(request)
            if best_key is None or key < best_key:
                best, best_key = request, key
        return best, best_key

    def _next_command_kind(self, request: MemoryRequest) -> CommandType:
        """The first SDRAM command ``request`` needs in the current state."""
        bank = self._bank
        if bank.open_row is None:
            return CommandType.ACTIVATE
        if bank.open_row == request.row:
            return CommandType.READ if request.is_read else CommandType.WRITE
        return CommandType.PRECHARGE

    def _candidate_for(
        self, request: MemoryRequest, key: Tuple, kind: CommandType, ready: bool
    ) -> CandidateCommand:
        charge_thread = request.thread_id
        charge_arrival = request.virtual_arrival
        if kind is CommandType.PRECHARGE and self.open_row_thread is not None:
            # A conflict precharge closes a row some other thread may
            # have opened; the VTMS charge goes to the row's owner.
            charge_thread = self.open_row_thread
            charge_arrival = self.open_row_arrival
        return CandidateCommand(
            kind=kind,
            rank=self.rank,
            bank=self.bank,
            row=request.row,
            ready=ready,
            key=key,
            request=request,
            charge_thread=charge_thread,
            charge_arrival=charge_arrival,
        )

    def _auto_precharge(self, now: int) -> Optional[CandidateCommand]:
        """Closed-page policy: close a row with no pending accesses."""
        bank = self._bank
        if bank.open_row is None:
            return None
        ready = self.dram.can_issue(CommandType.PRECHARGE, self.rank, self.bank, now)
        return CandidateCommand(
            kind=CommandType.PRECHARGE,
            rank=self.rank,
            bank=self.bank,
            row=bank.open_row,
            ready=ready,
            key=_AUTO_PRECHARGE_KEY,
            request=None,
            charge_thread=self.open_row_thread,
            charge_arrival=self.open_row_arrival,
        )

    # -- candidate selection ---------------------------------------------------

    def candidate(
        self, now: int, draining_for_refresh: bool = False
    ) -> Optional[CandidateCommand]:
        """Nominate this bank's best candidate command at cycle ``now``.

        Args:
            now: Current cycle.
            draining_for_refresh: When a refresh is due the controller
                stops opening new rows and precharges idle open rows so
                the refresh can start.

        First-ready selection orders requests by (not ready, RAS
        penalty, key): ready commands first, then CAS before RAS, then
        the policy's ordering key.  Under ``key_over_cas`` (BLISS) the
        RAS penalty is held at zero, so the key outranks the
        CAS-over-RAS preference.  A thread's requests of one command
        kind share the level and the key prefix, so only the oldest of
        each (thread, kind) is keyed.  The queue-shape counters collapse
        the single-kind shapes (closed bank, conflict-only queue,
        all-hit reads) to the min-key request under one readiness
        probe; only mixed queues take the full pass.
        """
        bank = self._bank
        policy = self.policy
        self._ensure_counts()

        # Write-drain gating: when writes are held back, schedule as if
        # only the reads were queued.
        eligible = self.writes_eligible
        n_vis = self._n_read + self._n_write if eligible else self._n_read
        open_row = bank.open_row
        if n_vis == 0:
            # Row exhausted (or queue empty): close it under the
            # closed-page policy, or when a refresh needs the banks.
            if open_row is not None and (
                self.row_policy == "closed" or draining_for_refresh
            ):
                return self._auto_precharge(now)
            return None
        queue = self.queue
        visible = queue if eligible else [r for r in queue if r.is_read]

        if open_row is None:
            if draining_for_refresh:
                # Hold activates while a refresh is waiting to start.
                return None
            kind = CommandType.ACTIVATE
        elif (
            policy.fq_bank_rule
            and now - bank.last_activate >= self.inversion_bound
        ):
            # FQ bank rule: commit to the earliest-virtual-finish-time
            # request and wait for its first command to become ready,
            # even if other requests (e.g. row hits) are ready now.
            request, key = self._min_key_head(visible)
            kind = self._next_command_kind(request)
            ready = self.dram.can_issue(kind, self.rank, self.bank, now)
            return self._candidate_for(request, key, kind, ready)
        else:
            hits = (
                self._n_read_hit + self._n_write_hit
                if eligible
                else self._n_read_hit
            )
            if hits == 0:
                kind = CommandType.PRECHARGE
            elif hits == n_vis and (not eligible or self._n_write_hit == 0):
                kind = CommandType.READ
            else:
                kind = None
        if kind is not None:
            # Single-kind queue (closed bank, conflicts only, or all-hit
            # reads): every candidate shares one command kind and one
            # readiness, so the min-key request wins.
            ready = self.dram.can_issue(kind, self.rank, self.bank, now)
            request, key = self._min_key_head(visible)
            return self._candidate_for(request, key, kind, ready)

        # Mixed kinds on an open row: one pass.  Each request's level
        # is 2 * (not ready) + RAS penalty, probed once per kind; ties
        # on level fall to the key of each (thread, kind)'s oldest.
        rank, bank_index = self.rank, self.bank
        can_issue = self.dram.can_issue
        key_of = self.key
        ras = 0 if policy.key_over_cas else 1
        read, write = CommandType.READ, CommandType.WRITE
        precharge = CommandType.PRECHARGE
        read_level = write_level = pre_level = -1
        seen: Set[int] = set()
        best_request = visible[0]
        best_kind = precharge
        best_level = 4
        best_key: Any = None
        for request in visible:
            if request.row != open_row:
                kind, slot = precharge, 0
                level = pre_level
                if level < 0:
                    level = pre_level = (
                        ras if can_issue(precharge, rank, bank_index, now) else ras + 2
                    )
            elif request.is_read:
                kind, slot = read, 1
                level = read_level
                if level < 0:
                    level = read_level = (
                        0 if can_issue(read, rank, bank_index, now) else 2
                    )
            else:
                kind, slot = write, 2
                level = write_level
                if level < 0:
                    level = write_level = (
                        0 if can_issue(write, rank, bank_index, now) else 2
                    )
            if level > best_level:
                continue
            group = 3 * request.thread_id + slot
            if group in seen:
                continue
            seen.add(group)
            key = key_of(request)
            if level < best_level or key < best_key:
                best_request, best_kind = request, kind
                best_level, best_key = level, key
        return self._candidate_for(best_request, best_key, best_kind, best_level < 2)

    # -- wake bounds ---------------------------------------------------------

    def _uniform_kind(self) -> Optional[CommandType]:
        """The one command kind every queued request needs, if they agree.

        For an open bank with queued work: PRECHARGE when nothing hits
        the open row, READ or WRITE when every request hits it with that
        kind, None for a mix.  When the kinds agree, which request the
        FQ bank rule nominates cannot change the command it waits for.
        """
        self._ensure_counts()
        hits = self._n_read_hit + self._n_write_hit
        if hits == 0:
            return CommandType.PRECHARGE
        if hits == self._n_read + self._n_write:
            if self._n_write_hit == 0:
                return CommandType.READ
            if self._n_read_hit == 0:
                return CommandType.WRITE
        return None

    def reads_vtms(self, now: int) -> bool:
        """True when this bank's wake bound at ``now`` depends on VTMS.

        Past the inversion bound an open bank with queued work serves
        only its earliest-VFT request (the FQ bank rule), so its bound
        is that request's own command — which a VTMS register change
        can alter only when the queued requests need different kinds.
        """
        bank = self._bank
        return (
            self.policy.fq_bank_rule
            and bank.open_row is not None
            and bool(self.queue)
            and now - bank.last_activate >= self.inversion_bound
            and self._uniform_kind() is None
        )

    def cacheable_wake(self, now: int) -> int:
        """Lower bound on this bank's next possibly-ready candidate, > ``now``.

        What the channel scheduler caches after a fruitless
        :meth:`candidate` call: :meth:`poll_bound` moved past ``now``,
        so the bank is skipped until the bound elapses.  ``IDLE_BOUND``
        when the bank has no work at all.
        """
        t = self.poll_bound(now)
        return t if t > now else now + 1

    def poll_bound(self, now: int) -> int:
        """First cycle ≥ ``now`` this bank could nominate a *ready* candidate.

        The channel scheduler's pre-candidate gate: when the bound is in
        the future, :meth:`candidate` is provably fruitless and is
        skipped without being called.  Exactness contract: the bound is
        ``<= now`` whenever :meth:`candidate` would return a ready
        command at ``now`` (the kind mask covers every visible
        candidate, including auto-precharge, and committed-FQ banks
        bound the nominated request's own command; states where the
        nominated set is ambiguous return ``now``).  A future bound may
        still be conservative (early), which at worst re-polls.
        ``IDLE_BOUND`` means nothing to nominate at all.

        Cached by the channel scheduler, the bound stays sound while
        other banks issue (they only push DRAM timing out), and every
        event that could pull it in — an arrival or issue on this bank,
        a refresh, a write-drain flip, and, when :meth:`reads_vtms`, a
        VTMS register change — drops it.  The channel scheduler also
        refreshes stale cached bounds through here, for
        :meth:`ChannelScheduler.select` and for the controller's sleep.
        """
        bank = self._bank
        if (
            self.policy.fq_bank_rule
            and bank.open_row is not None
            and self.queue
        ):
            switch = bank.last_activate + self.inversion_bound
            if now >= switch:
                # Committed: only the earliest-VFT request's next
                # command can issue from this bank.
                if not self.writes_eligible:
                    # The drain gate hides part of the queue from the
                    # nominee choice: poll every cycle.
                    return now
                kind = self._uniform_kind()
                if kind is None:
                    # The nominee comes from VFT ordering, keyed from
                    # live registers as candidate() keys it.
                    kind = self._next_command_kind(
                        self._min_key_head(self.queue)[0]
                    )
                t = self.dram.earliest_issue(kind, self.rank, self.bank)
                return now if t is None else t
            # First-ready until the inversion bound expires; the mode
            # switch itself is a wake-worthy event.
            mask = self.kind_mask()
            if not mask:
                return switch
            e = self.dram.kernel.earliest_by_mask(self.vtms_bank_index, mask)
            if e is None or e > switch:
                return switch
            return e
        mask = self.kind_mask()
        if not mask:
            return IDLE_BOUND
        e = self.dram.kernel.earliest_by_mask(self.vtms_bank_index, mask)
        return IDLE_BOUND if e is None else e

    def kind_mask(self) -> int:
        """Legality-kernel mask of the command kinds this bank needs.

        O(1) from the queue-shape counters; mirrors the kind set
        :meth:`candidate` would derive from a walk over the *visible*
        queue (write-drain gate applied), with the auto-precharge of an
        exhausted row folded in as PRECHARGE (``hits == 0`` on an open
        bank).  Zero means the bank has nothing to nominate.
        """
        self._ensure_counts()
        if self.writes_eligible:
            n = self._n_read + self._n_write
            hits = self._n_read_hit + self._n_write_hit
        else:
            n = self._n_read
            hits = self._n_read_hit
        if self._bank.open_row is None:
            return MASK_ACT if n else 0
        mask = 0
        if self._n_read_hit:
            mask |= MASK_READ
        if self.writes_eligible and self._n_write_hit:
            mask |= MASK_WRITE
        if n > hits or hits == 0:
            mask |= MASK_PRE
        return mask

    # -- issue notification -------------------------------------------------

    def on_issue(self, cand: CandidateCommand, now: int) -> None:
        """Update bookkeeping after the channel scheduler issues ``cand``."""
        if cand.kind is CommandType.ACTIVATE and cand.request is not None:
            self.open_row_thread = cand.request.thread_id
            self.open_row_arrival = cand.request.virtual_arrival
            self._recount_hits()
        elif cand.kind is CommandType.PRECHARGE:
            self.open_row_thread = None
            self._n_read_hit = 0
            self._n_write_hit = 0
            self._counted_row = None
        elif cand.kind.is_cas and cand.request is not None:
            self.remove(cand.request)
