"""Channel-level shared resources: command bus, data bus, CAS trackers.

Three bus policies cover every organisation in the paper's evaluation
(Tab. III, "DRAM timing parameters"):

``BANK_GROUPS``
    Standard DDR4: ``tCCD_L`` / ``tWTR_L`` between accesses to the same
    bank group, the short variants across groups.

``NO_GROUPS``
    The idealised organisation ("Ideal" column): the short variants apply
    everywhere -- enough internal bus bandwidth to never conflict.

``DDB``
    ERUCA's dual data bus: the long variants shrink to per-*bank* scope
    (each sub-bank has a dedicated data path, the pair of chip-global
    buses serves the group), but at most two column commands may occupy
    the dual buses per DRAM core clock -- the ``tTCW`` window -- and a
    read after two back-to-back writes must wait ``tTWTRW`` (Fig. 10).
    Both windows only bind when the core clock is slower than two channel
    bursts, i.e. at high channel frequencies (Fig. 14).
"""

from __future__ import annotations

import enum
from typing import List, Optional

from repro.dram.bank import NEVER
from repro.dram.timing import TimingParams


class BusPolicy(enum.Enum):
    """Which CAS-window scoping rules a channel uses (module docstring,
    Tab. III's Baseline / Ideal / DDB timing columns)."""

    BANK_GROUPS = "bank_groups"
    NO_GROUPS = "no_groups"
    DDB = "ddb"


#: Idle bubble inserted on the data bus when it changes direction.
TURNAROUND_CLOCKS = 2

#: Floor tags for the explain API (:meth:`ChannelResources.act_floors`
#: and friends).  :mod:`repro.sim.accounting` maps them onto its
#: :class:`~repro.sim.accounting.StallBucket` vocabulary.
FLOOR_BUS = "bus"
FLOOR_CCD_WTR_LONG = "ccd_wtr_long"
FLOOR_DDB_WINDOW = "ddb_window"
FLOOR_TRRD = "trrd"
FLOOR_TFAW = "tfaw"
FLOOR_BANK = "bank_busy"
FLOOR_REFRESH = "refresh"


class ChannelResources:
    """Timing trackers shared by all banks of one channel."""

    def __init__(self, timing: TimingParams, policy: BusPolicy,
                 bank_groups: int, banks: int) -> None:
        self.timing = timing
        self.policy = policy
        self.bank_groups = bank_groups
        self.banks = banks
        self.cmd_bus_free = 0
        # CAS-to-CAS separation trackers.
        self._last_cas_any = NEVER
        self._last_cas_bg: List[int] = [NEVER] * bank_groups
        self._last_cas_bank: List[int] = [NEVER] * banks
        # Data-bus occupancy and direction.
        self._last_data_end = NEVER
        self._last_data_write: Optional[bool] = None
        # Write-to-read turnaround trackers (write data end times).
        self._wr_end_any = NEVER
        self._wr_end_bg: List[int] = [NEVER] * bank_groups
        self._wr_end_bank: List[int] = [NEVER] * banks
        # tTCW: the two most recent column commands per bank group.
        self._cas_window: List[List[int]] = [
            [NEVER, NEVER] for _ in range(bank_groups)]
        # tTWTRW: the two most recent write commands per bank group.
        self._wr_window: List[List[int]] = [
            [NEVER, NEVER] for _ in range(bank_groups)]
        # ACT-to-ACT (tRRD) tracker, rank-wide.
        self._last_act = NEVER
        # tFAW: the four most recent ACT times, rank-wide (oldest first).
        # A fifth ACT may not issue before the oldest of the last four
        # plus the window.
        self._act_window: List[int] = [NEVER, NEVER, NEVER, NEVER]
        self._tfaw_active = timing.tFAW > 0
        # Refresh state.  ``ref_until`` holds the in-flight refresh
        # windows as per-[bank][sub-bank] blackout end times; it is None
        # when refresh is off so every hot path skips it with a single
        # check.  ``ref_due``/``ref_period`` track the deadline schedule:
        # the active policy arms them via :meth:`init_refresh_schedule`
        # and retires one owed refresh per :meth:`retire_refresh`.
        self.refresh_active = timing.refresh_enabled
        self.ref_until: Optional[List[List[int]]] = (
            [[NEVER, NEVER] for _ in range(banks)]
            if self.refresh_active else None)
        self.ref_due = 0
        self.ref_period = 0
        ddb = policy is BusPolicy.DDB
        self._windows_active = (ddb and timing.tTCW > 0
                                and timing.ddb_windows_needed())
        # earliest_column runs per column table per peek: the timing
        # constants it adds and the long-window trackers the policy
        # scopes (per bank group, per bank under DDB, none when ideal)
        # are bound once here instead of dispatching on the policy and
        # reloading ``self.timing.*`` on every call.
        self._tCCD_S = timing.tCCD_S
        self._tCCD_L = timing.tCCD_L
        self._tWTR_S = timing.tWTR_S
        self._tWTR_L = timing.tWTR_L
        self._tTCW = timing.tTCW
        self._tTWTRW = timing.tTWTRW
        self._tCL = timing.tCL
        self._tCWL = timing.tCWL
        self._turnaround = TURNAROUND_CLOCKS * timing.tCK
        #: The long-window trackers, or None under NO_GROUPS;
        #: ``_long_by_bank`` says whether they index by bank (DDB) or
        #: by bank group.
        self._long_cas: Optional[List[int]] = None
        self._long_wr: Optional[List[int]] = None
        self._long_by_bank = ddb
        if policy is BusPolicy.BANK_GROUPS:
            self._long_cas = self._last_cas_bg
            self._long_wr = self._wr_end_bg
        elif ddb:
            self._long_cas = self._last_cas_bank
            self._long_wr = self._wr_end_bank

    # -- queries ---------------------------------------------------------

    @property
    def windows_active(self) -> bool:
        """Whether the DDB two-command windows bind at this frequency."""
        return self._windows_active

    def earliest_act(self) -> int:
        """Channel-side ACT floor: command bus, rank-wide ``tRRD``, and
        the rolling four-activate ``tFAW`` window."""
        t = self.timing
        best = max(self.cmd_bus_free, self._last_act + t.tRRD)
        if self._tfaw_active:
            v = self._act_window[0] + t.tFAW
            if v > best:
                best = v
        return best

    def earliest_precharge(self) -> int:
        """Channel-side PRE floor: the command bus only."""
        return self.cmd_bus_free

    def refresh_floor(self, bank: int, subbank: int) -> int:
        """End of the refresh blackout covering (bank, sub-bank).

        ``NEVER`` when refresh is off or no refresh is in flight there;
        the device folds this into every per-slot ``earliest_*`` query.
        """
        ru = self.ref_until
        if ru is None:
            return NEVER
        return ru[bank][subbank]

    def earliest_column(self, is_write: bool, bank_group: int,
                        bank: int) -> int:
        """Earliest legal issue time for a column command to (bg, bank).

        Hot path (one call per cached column candidate per peek), so the
        floors are folded with running comparisons instead of building a
        throwaway list, over constants and trackers bound in
        ``__init__``.
        """
        best = self.cmd_bus_free
        v = self._last_cas_any + self._tCCD_S
        if v > best:
            best = v
        long_cas = self._long_cas
        if long_cas is not None:
            scope = bank if self._long_by_bank else bank_group
            v = long_cas[scope] + self._tCCD_L
            if v > best:
                best = v
            if self._windows_active:
                v = self._cas_window[bank_group][0] + self._tTCW
                if v > best:
                    best = v
        if is_write:
            latency = self._tCWL
        else:
            # Write-to-read turnaround (command-level).
            latency = self._tCL
            v = self._wr_end_any + self._tWTR_S
            if v > best:
                best = v
            if long_cas is not None:
                v = self._long_wr[scope] + self._tWTR_L
                if v > best:
                    best = v
                if self._windows_active:
                    v = self._wr_window[bank_group][0] + self._tTWTRW
                    if v > best:
                        best = v
        # External data-bus occupancy: the new burst must start after the
        # previous one ends, plus a turnaround bubble on direction change.
        last_write = self._last_data_write
        v = self._last_data_end - latency
        if last_write is not None and last_write != is_write:
            v += self._turnaround
        if v > best:
            best = v
        return best

    # -- explain API (cycle accounting) ----------------------------------
    #
    # Each ``*_floors`` method decomposes the matching ``earliest_*``
    # query into tagged (tag, time) constraints such that
    # ``max(time for _, time in floors) == earliest_*(...)`` exactly --
    # property-tested in tests/sim/test_accounting.py.  They run only
    # when a run is observed, so they may build lists the hot path
    # avoids.

    def act_floors(self) -> list:
        """Tagged decomposition of :meth:`earliest_act`."""
        floors = [
            (FLOOR_BUS, self.cmd_bus_free),
            (FLOOR_TRRD, self._last_act + self.timing.tRRD),
        ]
        if self._tfaw_active:
            floors.append(
                (FLOOR_TFAW, self._act_window[0] + self.timing.tFAW))
        return floors

    def precharge_floors(self) -> list:
        """Tagged decomposition of :meth:`earliest_precharge`."""
        return [(FLOOR_BUS, self.cmd_bus_free)]

    def column_floors(self, is_write: bool, bank_group: int,
                      bank: int) -> list:
        """Tagged decomposition of :meth:`earliest_column`.

        The long CAS windows (``tCCD_L``/``tWTR_L`` -- what DDB
        relaxes) and the DDB guard windows (``tTCW``/``tTWTRW``) get
        their own tags; the command bus, short CAS spacing, and
        data-bus occupancy/turnaround all file under the generic bus
        tag.
        """
        t = self.timing
        floors = [
            (FLOOR_BUS, self.cmd_bus_free),
            (FLOOR_BUS, self._last_cas_any + t.tCCD_S),
        ]
        policy = self.policy
        if policy is BusPolicy.BANK_GROUPS:
            floors.append((FLOOR_CCD_WTR_LONG,
                           self._last_cas_bg[bank_group] + t.tCCD_L))
        elif policy is BusPolicy.DDB:
            floors.append((FLOOR_CCD_WTR_LONG,
                           self._last_cas_bank[bank] + t.tCCD_L))
            if self._windows_active:
                floors.append((FLOOR_DDB_WINDOW,
                               self._cas_window[bank_group][0] + t.tTCW))
        if not is_write:
            floors.append((FLOOR_BUS, self._wr_end_any + t.tWTR_S))
            if policy is BusPolicy.BANK_GROUPS:
                floors.append((FLOOR_CCD_WTR_LONG,
                               self._wr_end_bg[bank_group] + t.tWTR_L))
            elif policy is BusPolicy.DDB:
                floors.append((FLOOR_CCD_WTR_LONG,
                               self._wr_end_bank[bank] + t.tWTR_L))
                if self._windows_active:
                    floors.append(
                        (FLOOR_DDB_WINDOW,
                         self._wr_window[bank_group][0] + t.tTWTRW))
        last_write = self._last_data_write
        if last_write is not None and last_write != is_write:
            v = (self._last_data_end + TURNAROUND_CLOCKS * t.tCK
                 - (t.tCWL if is_write else t.tCL))
        else:
            v = self._last_data_end - (t.tCWL if is_write else t.tCL)
        floors.append((FLOOR_BUS, v))
        return floors

    # -- recorders -------------------------------------------------------

    def record_act(self, time: int) -> None:
        """Commit an ACT: advance the ``tRRD`` anchor, roll the ``tFAW``
        window, and occupy the command bus."""
        self._last_act = time
        w = self._act_window
        w[0], w[1], w[2], w[3] = w[1], w[2], w[3], time
        self.cmd_bus_free = max(self.cmd_bus_free, time + self.timing.tCK)

    def record_precharge(self, time: int) -> None:
        """Commit a PRE: it only occupies the command bus for a clock."""
        self.cmd_bus_free = max(self.cmd_bus_free, time + self.timing.tCK)

    # -- refresh ---------------------------------------------------------

    def init_refresh_schedule(self, period: int) -> None:
        """Arm the deadline tracker: the first refresh is due one period
        in.  ``period`` is the cadence the active policy retires owed
        refreshes at -- tREFI for all-bank REF, tREFI divided by the
        scope count for per-bank/per-sub-bank rotations."""
        self.ref_period = period
        self.ref_due = period

    def retire_refresh(self) -> None:
        """One owed refresh retired: push the deadline out one period."""
        self.ref_due += self.ref_period

    def record_refresh(self, time: int, duration: int, bank: int = -1,
                       subbank: int = -1) -> int:
        """Commit a refresh: black out its scope and occupy the command
        bus for a clock.

        ``bank < 0`` is an all-bank REF (the whole rank); ``subbank < 0``
        with a bank covers both of that bank's sub-banks (DARP-style
        REFpb); both set covers a single sub-bank (SARP).  Returns the
        blackout end time.
        """
        end = time + duration
        ru = self.ref_until
        if bank < 0:
            for slots in ru:
                slots[0] = slots[1] = end
        elif subbank < 0:
            slots = ru[bank]
            slots[0] = slots[1] = end
        else:
            ru[bank][subbank] = end
        self.cmd_bus_free = max(self.cmd_bus_free, time + self.timing.tCK)
        return end

    def record_column(self, time: int, is_write: bool, bank_group: int,
                      bank: int) -> int:
        """Record a column command; returns the data-burst end time."""
        t = self.timing
        latency = t.tCWL if is_write else t.tCL
        data_end = time + latency + t.burst_time
        self._last_cas_any = max(self._last_cas_any, time)
        self._last_cas_bg[bank_group] = max(
            self._last_cas_bg[bank_group], time)
        self._last_cas_bank[bank] = max(self._last_cas_bank[bank], time)
        self._last_data_end = max(self._last_data_end, data_end)
        self._last_data_write = is_write
        window = self._cas_window[bank_group]
        window[0], window[1] = window[1], time
        if is_write:
            self._wr_end_any = max(self._wr_end_any, data_end)
            self._wr_end_bg[bank_group] = max(
                self._wr_end_bg[bank_group], data_end)
            self._wr_end_bank[bank] = max(self._wr_end_bank[bank], data_end)
            wr_window = self._wr_window[bank_group]
            wr_window[0], wr_window[1] = wr_window[1], time
        self.cmd_bus_free = max(self.cmd_bus_free, time + t.tCK)
        return data_end
