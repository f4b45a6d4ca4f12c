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
policy (docs/INTERNALS.md, "Hot-path kernels").  The scheduler keeps
read/write and row-hit counts over its queue, so the common queue
shapes (closed bank, conflicts only, all-hit reads) pick the min-key
request under one readiness probe, "which command kinds does this bank
need?" (:meth:`kind_mask`) is O(1), and wake bounds come from the DRAM
system's legality kernel instead of a queue walk.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

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
        #: Optional run telemetry (repro.telemetry); None in normal
        #: runs, so the issue hook costs one attribute test.
        self.telemetry = None
        #: Optional policy-key memo counters (repro.obs); None in
        #: normal runs.  RunObs.attach also rebinds ``_request_key`` /
        #: ``_key_of`` to counting closures, so only the loop in
        #: :meth:`candidate`, which inlines the memo, consults this
        #: attribute directly.
        self.obs_keys = None
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
        #: Bumped when the bank's row state changes; finish-time
        #: estimates depend on it through Table 3's service times.
        self._row_epoch = 0
        #: Bumped on queue membership changes; part of the scan stamp
        #: that lets :meth:`_refresh_finish_times` skip entirely.
        self._queue_version = 0
        #: Inputs of the last finish-time scan (all three are monotone
        #: counters, so equality means "nothing moved").
        self._scan_global = -1
        self._scan_row = -1
        self._scan_queue = -1
        #: The policy's key function; RunObs.attach may rebind it to a
        #: counting wrapper.
        self._key_of = policy.request_key
        if not policy.memoize_keys:
            self._request_key = self._key_of  # type: ignore[method-assign]
        if policy.uses_vtms and vtms is None:
            raise ValueError(f"policy {policy.name} requires VTMS state")

    # -- queue management --------------------------------------------------

    def add(self, request: MemoryRequest) -> None:
        self._ensure_counts()
        self.queue.append(request)
        self._queue_version += 1
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
        self._queue_version += 1
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

    # -- helpers -------------------------------------------------------------

    def _bank_state(self):
        return self._bank

    def _request_key(self, request: MemoryRequest) -> Tuple:
        """Policy ordering key, memoized per request.

        FR-FCFS keys are fixed at arrival; VTMS keys change only when
        :meth:`_refresh_finish_times` recomputes a request's estimate,
        which clears ``key_cache`` — so the key is rebuilt exactly when
        its inputs changed.  Policies whose keys read mutable policy
        state opt out of the memo (``memoize_keys`` False):
        construction rebinds this name to the raw key function, so they
        recompute every call and the memoizing path stays branch-free.
        """
        key = request.key_cache
        if key is None:
            key = self._key_of(request)
            request.key_cache = key
        return key

    def _next_command_kind(self, request: MemoryRequest) -> CommandType:
        """The first SDRAM command ``request`` needs in the current state."""
        bank = self._bank_state()
        if bank.open_row is None:
            return CommandType.ACTIVATE
        if bank.open_row == request.row:
            return CommandType.READ if request.is_read else CommandType.WRITE
        return CommandType.PRECHARGE

    def _refresh_finish_times(self) -> None:
        """Recompute each pending request's VFT from live VTMS registers.

        Implements the paper's deferred finish-time computation: the
        estimate uses the bank-state-dependent service time (Table 3)
        and the thread's current registers, so it tracks the service
        the thread has actually consumed.  Clearing ``key_cache`` here
        is what keeps the per-request key memo sound.
        """
        vtms = self.vtms
        assert vtms is not None  # callers gate on policy.uses_vtms
        if (
            vtms.global_epoch == self._scan_global
            and self._row_epoch == self._scan_row
            and self._queue_version == self._scan_queue
        ):
            # VTMS registers, bank row state, and queue membership are
            # all unchanged since the last scan, so every request's
            # estimate is still current.  Epochs and the queue version
            # only move on arrival/issue events, never on idle cycles.
            return
        self._scan_global = vtms.global_epoch
        self._scan_row = self._row_epoch
        self._scan_queue = self._queue_version
        bank = self._bank_state()
        row_epoch = self._row_epoch
        bank_index = self.vtms_bank_index
        for request in self.queue:
            thread = vtms[request.thread_id]
            epoch = thread.epoch
            if (
                request.vft_thread_epoch == epoch
                and request.vft_row_epoch == row_epoch
            ):
                continue
            service = bank.state_service_time(request.row)
            request.virtual_start_time = thread.start_time_estimate(bank_index)
            request.virtual_finish_time = thread.finish_time_estimate(
                bank_index, service
            )
            request.vft_thread_epoch = epoch
            request.vft_row_epoch = row_epoch
            request.key_cache = None

    def _candidate_for(
        self,
        request: MemoryRequest,
        now: int,
        kind: Optional[CommandType] = None,
        ready: Optional[bool] = None,
    ) -> CandidateCommand:
        if kind is None:
            kind = self._next_command_kind(request)
        if ready is None:
            ready = self.dram.can_issue(kind, self.rank, self.bank, now)
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
            key=self._request_key(request),
            request=request,
            charge_thread=charge_thread,
            charge_arrival=charge_arrival,
        )

    def _auto_precharge(self, now: int) -> Optional[CandidateCommand]:
        """Closed-page policy: close a row with no pending accesses."""
        bank = self._bank_state()
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

    def _min_key_request(self, visible: List[MemoryRequest]) -> MemoryRequest:
        if len(visible) == 1:
            return visible[0]
        return min(visible, key=self._request_key)

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
        CAS-over-RAS preference.  The queue-shape counters collapse the
        single-kind shapes (closed bank, conflict-only queue, all-hit
        reads) to the min-key request under one readiness probe; only
        mixed queues take the full pass.
        """
        bank = self._bank
        policy = self.policy
        queue = self.queue
        if policy.uses_vtms and not policy.arrival_accounting and queue:
            self._refresh_finish_times()
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
            return self._candidate_for(self._min_key_request(visible), now)
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
            return self._candidate_for(
                self._min_key_request(visible), now, kind=kind, ready=ready
            )

        # Mixed kinds on an open row: one pass.  Each request's level
        # is 2 * (not ready) + RAS penalty, probed once per kind, and
        # ties on level fall to the policy key.
        rank, bank_index = self.rank, self.bank
        can_issue = self.dram.can_issue
        key_of = self._key_of
        memoize = policy.memoize_keys
        obs_keys = self.obs_keys
        ras = 0 if policy.key_over_cas else 1
        read, write = CommandType.READ, CommandType.WRITE
        precharge = CommandType.PRECHARGE
        read_level = write_level = pre_level = -1
        best_request = visible[0]
        best_kind = precharge
        best_level = 4
        best_key: Any = None
        for request in visible:
            if request.row != open_row:
                kind = precharge
                level = pre_level
                if level < 0:
                    level = pre_level = (
                        ras if can_issue(precharge, rank, bank_index, now) else ras + 2
                    )
            elif request.is_read:
                kind = read
                level = read_level
                if level < 0:
                    level = read_level = (
                        0 if can_issue(read, rank, bank_index, now) else 2
                    )
            else:
                kind = write
                level = write_level
                if level < 0:
                    level = write_level = (
                        0 if can_issue(write, rank, bank_index, now) else 2
                    )
            if memoize:
                key = request.key_cache
                if key is None:
                    key = key_of(request)
                    request.key_cache = key
                    if obs_keys is not None:
                        obs_keys.misses += 1
                elif obs_keys is not None:
                    obs_keys.hits += 1
            else:
                key = key_of(request)
            if level < best_level or (level == best_level and key < best_key):
                best_request, best_kind = request, kind
                best_level, best_key = level, key
        return self._candidate_for(
            best_request, now, kind=best_kind, ready=best_level < 2
        )

    # -- wake bounds ---------------------------------------------------------

    def cacheable_wake(self, now: int) -> Optional[int]:
        """Lower bound on this bank's next possibly-ready candidate.

        The channel scheduler caches the result and skips this bank's
        :meth:`candidate` call until the bound elapses.  The bound must
        only move *later* while cached, which holds because command
        issues elsewhere can only push DRAM timing out, and every event
        that could pull it in (an arrival, an issue on this bank, a
        refresh, a write-drain flip — and, under VTMS policies, *any*
        VTMS register change, which the controller maps to a full
        invalidation on every arrival and issue) invalidates the cache.

        Returns ``IDLE_BOUND`` when the bank has no work at all.  In
        committed FQ mode the bound is exact: the nominated request is
        pinned until the next invalidation event (VTMS registers only
        move on arrivals/issues, both of which invalidate), so the
        earliest-issue time of its next command kind may be cached.
        ``None`` (poll every cycle) is kept only for the rare
        write-gated committed state, where the nominated set depends on
        the drain gate mid-flight.
        """
        bank = self._bank_state()
        if (
            self.policy.fq_bank_rule
            and bank.open_row is not None
            and self.queue
            and now - bank.last_activate >= self.inversion_bound
        ):
            if not self.writes_eligible:
                return None
            if not self.policy.arrival_accounting:
                self._refresh_finish_times()
            chosen = self._min_key_request(self.queue)
            t = self.dram.earliest_issue(
                self._next_command_kind(chosen), self.rank, self.bank
            )
            if t is None:  # pragma: no cover - open bank always has a kind
                return None
            return t if t > now else now + 1
        t = self.earliest_possible_issue(now)
        if t is None:
            return IDLE_BOUND
        return t

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
        """
        bank = self._bank
        if (
            self.policy.fq_bank_rule
            and bank.open_row is not None
            and self.queue
        ):
            switch = bank.last_activate + self.inversion_bound
            if now >= switch:
                if not self.writes_eligible:
                    return now
                if not self.policy.arrival_accounting:
                    # The nominated request comes from VFT ordering, so
                    # the estimates must be current before taking the
                    # min (candidate() refreshes them the same way).
                    self._refresh_finish_times()
                chosen = self._min_key_request(self.queue)
                t = self.dram.earliest_issue(
                    self._next_command_kind(chosen), self.rank, self.bank
                )
                return now if t is None else t
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

    def earliest_possible_issue(self, now: int) -> Optional[int]:
        """Earliest future cycle any of this bank's candidates could issue.

        Used by the controller's sleep logic: absent new arrivals and
        issues elsewhere, no command of this bank can become ready
        before the returned cycle.  ``None`` when the bank has nothing
        to do.
        """
        bank = self._bank_state()

        if (
            self.policy.fq_bank_rule
            and bank.open_row is not None
            and self.queue
        ):
            switch = bank.last_activate + self.inversion_bound
            if now >= switch:
                # Committed mode: only the earliest-virtual-finish-time
                # request's first command can issue from this bank.
                if not self.policy.arrival_accounting:
                    self._refresh_finish_times()
                chosen = self._min_key_request(self.queue)
                t = self.dram.earliest_issue(
                    self._next_command_kind(chosen), self.rank, self.bank
                )
                if t is None:
                    return None
                return t if t > now else now + 1
            # First-ready until the inversion bound expires; the mode
            # switch itself is a wake-worthy event.
            first_ready = self._first_ready_earliest(now)
            if first_ready is None:
                return switch if switch > now else now + 1
            t = first_ready if first_ready < switch else switch
            return t if t > now else now + 1

        earliest = self._first_ready_earliest(now)
        if earliest is None:
            return None
        return earliest if earliest > now else now + 1

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

    def _first_ready_earliest(self, now: int) -> Optional[int]:
        """Min earliest-issue over every candidate command of this bank.

        Requests reduce to at most three distinct command kinds in any
        bank state; the kind set comes from the queue-shape counters
        and the timing min from the legality kernel, so no
        queue walk happens here.
        """
        mask = self.kind_mask()
        if not mask:
            return None
        return self.dram.kernel.earliest_by_mask(self.vtms_bank_index, mask)

    # -- issue notification -------------------------------------------------

    def on_issue(self, cand: CandidateCommand, now: int) -> None:
        """Update bookkeeping after the channel scheduler issues ``cand``."""
        if self.telemetry is not None:
            # Before any mutation, so the inversion probe sees the
            # queue exactly as the selection that chose ``cand`` did.
            self.telemetry.on_bank_issue(self, cand, now)
        if cand.kind is CommandType.ACTIVATE and cand.request is not None:
            self.open_row_thread = cand.request.thread_id
            self.open_row_arrival = cand.request.virtual_arrival
            self._row_epoch += 1
            self._recount_hits()
        elif cand.kind is CommandType.PRECHARGE:
            self.open_row_thread = None
            self._row_epoch += 1
            self._n_read_hit = 0
            self._n_write_hit = 0
            self._counted_row = None
        elif cand.kind.is_cas and cand.request is not None:
            self.remove(cand.request)
