"""Timed bank state machines.

A :class:`Bank` generalises every organisation the paper evaluates into a
collection of *row slots* -- independently activatable/prechargeable units:

==========================  =========================================
organisation                slots per bank
==========================  =========================================
baseline DDR4 / ideal32     1 (the whole bank)
VSB / Half-DRAM / paired    2 (left/right sub-bank)
MASA-n (SALP)               n (sub-array groups)
MASA-n + ERUCA              2 x n (sub-bank x sub-array group)
==========================  =========================================

Sub-banked organisations additionally enforce the plane-latch sharing rules
of :mod:`repro.core.subbank`; MASA organisations pay the extra ``tSA``
latency when consecutive column accesses hit different sub-array groups
that share global bitlines (Section III-A / Fig. 15 discussion).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.controller.mapping import RowLayout
from repro.core.subbank import ActivationVerdict
from repro.dram.timing import TimingParams

#: "Never happened" timestamp: far enough in the past that any constraint
#: anchored to it is trivially satisfied.
NEVER = -(1 << 60)

SlotKey = Tuple[int, int]  # (subbank, subarray_group)


@dataclass
class RowSlot:
    """One independently controllable row resource and its timestamps."""

    active_row: Optional[int] = None
    #: Time of the last ACT to this slot.
    act_time: int = NEVER
    #: Earliest time a column command may issue (ACT + tRCD).
    ready_col: int = NEVER
    #: Earliest time a *write* column command may issue (ACT + tRCD_WR;
    #: equals ``ready_col`` on technologies with symmetric tRCD).
    ready_col_wr: int = NEVER
    #: Earliest time a PRE may issue (tRAS / tRTP / write recovery).
    pre_allowed: int = NEVER
    #: Earliest time an ACT may issue (PRE + tRP, and tRC from last ACT).
    act_allowed: int = 0
    #: Plane and MWL tag of the active row (cached at activation so the
    #: scheduler's hot classify() path never recomputes them).
    active_plane: int = -1
    active_mwl: int = -1
    #: Last time this slot was activated or column-accessed (for the
    #: adaptive open-page policy's idle-close decision).
    last_use: int = NEVER
    #: End of the in-flight PCM write pulse (``tWRP`` after the write
    #: burst); ``NEVER`` when no pulse is programming this slot.
    wr_pulse_end: int = NEVER
    #: Earliest time the in-flight pulse may be cancelled by a PRE
    #: (``tWCT`` after the write burst).
    wr_cancel_ready: int = NEVER
    #: Column-readiness gate left behind by a cancelled write: the
    #: replayed programming pulse finishes this late after the next ACT.
    replay_until: int = NEVER


@dataclass
class BankGeometry:
    """Shape of one bank: how many sub-banks and sub-array groups."""

    subbanks: int = 1
    subarray_groups: int = 1
    row_bits: int = 16
    #: Extra sub-array interleave latency (ps) charged when consecutive
    #: column accesses within one sub-bank hit different MASA groups.
    tSA: int = 0

    def __post_init__(self) -> None:
        if self.subbanks not in (1, 2):
            raise ValueError("subbanks must be 1 or 2")
        if (self.subarray_groups < 1
                or self.subarray_groups & (self.subarray_groups - 1)):
            raise ValueError("subarray_groups must be a power of two")

    @property
    def group_shift(self) -> int:
        """Sub-array groups are contiguous row regions (row MSBs)."""
        bits = (self.subarray_groups - 1).bit_length()
        return self.row_bits - bits

    def group_of(self, row: int) -> int:
        """The MASA sub-array group this row belongs to (0 if none)."""
        if self.subarray_groups == 1:
            return 0
        return row >> self.group_shift


class Bank:
    """One physical bank: row slots + plane-latch rules + timing."""

    def __init__(self, geometry: BankGeometry, timing: TimingParams,
                 row_layout: Optional[RowLayout] = None,
                 ewlr: bool = False, rap: bool = False) -> None:
        if geometry.subbanks == 1 and (ewlr or rap):
            raise ValueError("EWLR/RAP require a sub-banked bank")
        self.geometry = geometry
        self.timing = timing
        self.row_layout = row_layout
        self.ewlr = ewlr
        self.rap = rap
        self.slots: Dict[SlotKey, RowSlot] = {
            (sb, g): RowSlot()
            for sb in range(geometry.subbanks)
            for g in range(geometry.subarray_groups)
        }
        #: Slot and time of the last column access, for the MASA tSA
        #: penalty (shared global bitlines serialise sub-array groups).
        self._last_col_slot: Optional[SlotKey] = None
        self._last_col_time: int = NEVER
        # PCM write-pulse model (init-bound so the DRAM hot path pays a
        # single attribute test).
        self._pcm = timing.write_pulse_enabled
        self._trcd_wr = timing.trcd_wr
        self._cancel_ok = timing.tWCT > 0
        # slot_key runs several times per command.  A single-group bank
        # hands out its per-sub-bank keys from a table; a MASA bank
        # shifts the row by the precomputed group shift.
        self._flat_keys: Optional[Tuple[SlotKey, ...]] = (
            tuple((sb, 0) for sb in range(geometry.subbanks))
            if geometry.subarray_groups == 1 else None)
        self._group_shift = geometry.group_shift

    # -- addressing -----------------------------------------------------

    def slot_key(self, subbank: int, row: int) -> SlotKey:
        """The (sub-bank, sub-array group) slot serving this row."""
        keys = self._flat_keys
        if keys is not None:
            return keys[subbank]
        return (subbank, row >> self._group_shift)

    def slot(self, subbank: int, row: int) -> RowSlot:
        """The :class:`RowSlot` serving (subbank, row)."""
        return self.slots[self.slot_key(subbank, row)]

    def _plane_of(self, row: int, subbank: int) -> int:
        return self.row_layout.plane_id(row, subbank, self.rap)

    # -- activation classification (Fig. 5 flow) -------------------------

    def classify(self, subbank: int, row: int,
                 plane: Optional[int] = None, mwl: Optional[int] = None,
                 key: Optional[SlotKey] = None
                 ) -> Tuple[ActivationVerdict, Optional[SlotKey]]:
        """What must happen for (subbank, row) to serve a column command.

        Returns the verdict plus, for conflicts, the slot that must be
        precharged first (the victim).  ``plane``/``mwl``/``key`` may be
        passed pre-computed (the scheduler caches them per transaction).
        """
        if key is None:
            key = self.slot_key(subbank, row)
        own = self.slots[key]
        if own.active_row == row:
            return ActivationVerdict.ROW_HIT, None
        if own.active_row is not None:
            return ActivationVerdict.OWN_ROW_CONFLICT, key
        if self.geometry.subbanks == 1 or self.row_layout is None:
            return ActivationVerdict.ACT_OK, None
        # Plane-latch interaction with every active row of the paired
        # sub-bank (with MASA there may be several).
        if plane is None:
            plane = self._plane_of(row, subbank)
        if mwl is None and self.ewlr:
            mwl = self.row_layout.mwl_tag(row)
        other_sb = 1 - subbank
        ewlr_hit = False
        for g in range(self.geometry.subarray_groups):
            other = self.slots[(other_sb, g)]
            if other.active_row is None:
                continue
            if other.active_plane != plane:
                continue
            if self.ewlr:
                if other.active_mwl == mwl:
                    ewlr_hit = True
                    continue
            elif other.active_row == row:
                continue  # naive VSB may share an identical row address
            return ActivationVerdict.PLANE_CONFLICT, (other_sb, g)
        if ewlr_hit:
            return ActivationVerdict.EWLR_HIT, None
        return ActivationVerdict.ACT_OK, None

    # -- timed state transitions -----------------------------------------

    def earliest_act(self, subbank: int, row: int) -> int:
        """Earliest ACT time for this slot (``tRP`` from its precharge
        and ``tRC`` from its previous ACT)."""
        return self.slot(subbank, row).act_allowed

    def earliest_column(self, subbank: int, row: int,
                        is_write: bool = False) -> int:
        """Earliest column command time, including the MASA tSA penalty.

        Consecutive column accesses to *different* sub-array groups within
        one sub-bank share global bitlines, so they are serialised tSA
        apart (Kim et al. [2]) -- a bandwidth cost, which is what limits
        MASA under high memory intensity (Fig. 15 discussion).

        Writes read their own readiness horizon: on PCM the write path
        opens after ``tRCD_WR`` (asymmetric RAS-to-CAS), while DRAM keeps
        the two horizons identical.
        """
        key = self.slot_key(subbank, row)
        slot = self.slots[key]
        ready = slot.ready_col_wr if is_write else slot.ready_col
        if self._pcm and ready < slot.replay_until:
            # A cancelled write is re-programmed on re-activation: the
            # replay pulse walls off the partition's columns until
            # ``replay_until``, across any intervening row swaps.
            ready = slot.replay_until
        if (self.geometry.tSA and self._last_col_slot is not None
                and self._last_col_slot != key
                and self._last_col_slot[0] == key[0]):
            ready = max(ready + self.geometry.tSA,
                        self._last_col_time + self.geometry.tSA)
        return ready

    def earliest_precharge(self, key: SlotKey, cancel: bool = False) -> int:
        """Earliest PRE time for this slot (``tRAS``, ``tRTP``, and
        write recovery ``tWR`` after the last write's data burst).

        With a PCM write pulse in flight a plain PRE waits out the full
        pulse; ``cancel=True`` asks for the *write-cancellation* floor
        instead (``tWCT`` after the burst), legal only when the backend
        supports cancellation.
        """
        slot = self.slots[key]
        floor = slot.pre_allowed
        pulse = slot.wr_pulse_end
        if pulse > floor:
            if cancel and self._cancel_ok:
                if slot.wr_cancel_ready > floor:
                    floor = slot.wr_cancel_ready
            else:
                floor = pulse
        return floor

    def do_activate(self, subbank: int, row: int, time: int) -> bool:
        """Open ``row``: set the slot's ``tRCD``/``tRAS``/``tRC``
        horizons and cache its plane/MWL tag for classify().

        Returns whether the ACT was an EWLR hit -- the verdict of the
        legality check, so callers need not classify a second time.
        """
        key = self.slot_key(subbank, row)
        verdict, _ = self.classify(subbank, row, key=key)
        ewlr_hit = verdict is ActivationVerdict.EWLR_HIT
        if not ewlr_hit and verdict is not ActivationVerdict.ACT_OK:
            raise ValueError(f"illegal ACT at {time}: {verdict}")
        slot = self.slots[key]
        if time < slot.act_allowed:
            raise ValueError(
                f"ACT at {time} violates act_allowed={slot.act_allowed}")
        t = self.timing
        slot.active_row = row
        slot.act_time = time
        slot.ready_col = time + t.tRCD
        slot.ready_col_wr = time + self._trcd_wr
        slot.pre_allowed = time + t.tRAS
        slot.act_allowed = time + t.tRC
        slot.last_use = time
        layout = self.row_layout
        if layout is not None and self.geometry.subbanks == 2:
            slot.active_plane = layout.plane_id(row, subbank, self.rap)
            slot.active_mwl = layout.mwl_tag(row)
        return ewlr_hit

    def do_column(self, subbank: int, row: int, time: int,
                  is_write: bool) -> None:
        """Apply a RD/WR: push the slot's precharge horizon (``tRTP``,
        or ``tWR`` past the write burst) and the MASA ``tSA`` tracker."""
        key = self.slot_key(subbank, row)
        slot = self.slots[key]
        if slot.active_row != row:
            raise ValueError("column command to a row that is not open")
        if time < self.earliest_column(subbank, row, is_write):
            raise ValueError(f"column command at {time} too early")
        t = self.timing
        if is_write:
            data_end = time + t.tCWL + t.burst_time
            slot.pre_allowed = max(slot.pre_allowed, data_end + t.tWR)
            if self._pcm:
                # The programming pulse occupies the slot past the
                # burst: columns wait it out; a PRE either waits too or
                # cancels it once tWCT has elapsed.
                slot.wr_pulse_end = data_end + t.tWRP
                slot.wr_cancel_ready = data_end + t.tWCT
                if slot.wr_pulse_end > slot.ready_col:
                    slot.ready_col = slot.wr_pulse_end
                if slot.wr_pulse_end > slot.ready_col_wr:
                    slot.ready_col_wr = slot.wr_pulse_end
        else:
            slot.pre_allowed = max(slot.pre_allowed, time + t.tRTP)
        self._last_col_slot = key
        self._last_col_time = time
        slot.last_use = time

    def do_precharge(self, key: SlotKey, time: int) -> bool:
        """Close the slot's row; the next ACT waits ``tRP`` from here.

        A PRE landing inside an in-flight PCM write pulse *is* a write
        cancellation (PALP): legal only once ``tWCT`` has elapsed since
        the burst, it aborts the pulse and leaves a ``replay_until``
        gate for the next activation.  Returns True when this happened.
        """
        slot = self.slots[key]
        if slot.active_row is None:
            raise ValueError("precharge of an idle slot")
        cancelled = False
        if self._pcm and time < slot.wr_pulse_end:
            if not self._cancel_ok:
                raise ValueError(
                    f"PRE at {time} inside a write pulse ending at "
                    f"{slot.wr_pulse_end} (no cancellation: tWCT=0)")
            if time < slot.wr_cancel_ready:
                raise ValueError(
                    f"write cancellation at {time} before "
                    f"wr_cancel_ready={slot.wr_cancel_ready}")
            cancelled = True
            slot.replay_until = time + self.timing.tWRP
        if time < slot.pre_allowed:
            raise ValueError(
                f"PRE at {time} violates pre_allowed={slot.pre_allowed}")
        slot.active_row = None
        slot.act_allowed = max(slot.act_allowed, time + self.timing.tRP)
        slot.wr_pulse_end = NEVER
        slot.wr_cancel_ready = NEVER
        if self._last_col_slot == key:
            self._last_col_slot = None
        return cancelled

    def partial_precharge_possible(self, key: SlotKey) -> bool:
        """Whether PRE of this slot can keep its MWL raised (EWLR pair).

        True when some active row of the *other* sub-bank shares the
        victim row's plane and MWL tag, so the MWL must stay up and only
        the sub-bank's local logic is released (paper Section VI-A).
        """
        if not self.ewlr or self.geometry.subbanks == 1:
            return False
        victim = self.slots[key]
        if victim.active_row is None:
            return False
        other_sb = 1 - key[0]
        for g in range(self.geometry.subarray_groups):
            other = self.slots[(other_sb, g)]
            if other.active_row is None:
                continue
            if (other.active_plane == victim.active_plane
                    and other.active_mwl == victim.active_mwl):
                return True
        return False

    def open_rows(self) -> Dict[SlotKey, int]:
        """All currently open rows, keyed by slot."""
        return {k: s.active_row for k, s in self.slots.items()
                if s.active_row is not None}
