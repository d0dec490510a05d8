"""One DRAM channel: banks plus shared resources, with legality queries.

The :class:`Channel` is the device-side API the memory controller talks to.
For every prospective command it answers "what is the earliest time this
command may legally issue?", and applies the state change once the
controller commits to an issue time.  All organisation differences (bank
groups vs. ideal vs. DDB, full banks vs. sub-banks vs. MASA groups) live in
the :class:`~repro.dram.bank.Bank` geometry and the
:class:`~repro.dram.resources.BusPolicy` -- the controller code is
organisation-agnostic.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.controller.mapping import RowLayout
from repro.controller.transaction import DramCoordinates
from repro.core.subbank import ActivationVerdict
from repro.dram.bank import Bank, BankGeometry, SlotKey
from repro.dram.commands import PrechargeCause
from repro.dram.power import EnergyMeter, EnergyParams
from repro.dram.resources import (FLOOR_BANK, FLOOR_BUS, FLOOR_REFRESH,
                                  BusPolicy, ChannelResources)
from repro.dram.timing import TimingParams


class Channel:
    """A single DRAM channel (one rank) of some organisation."""

    def __init__(self, timing: TimingParams, policy: BusPolicy,
                 bank_groups: int, banks_per_group: int,
                 bank_geometry: BankGeometry,
                 row_layout: Optional[RowLayout] = None,
                 ewlr: bool = False, rap: bool = False,
                 energy_params: Optional[EnergyParams] = None,
                 record_commands: bool = False) -> None:
        self.timing = timing
        self.policy = policy
        self.bank_groups = bank_groups
        self.banks_per_group = banks_per_group
        n_banks = bank_groups * banks_per_group
        self.banks: List[Bank] = [
            Bank(bank_geometry, timing, row_layout, ewlr, rap)
            for _ in range(n_banks)
        ]
        self.resources = ChannelResources(
            timing, policy, bank_groups, n_banks)
        self.energy = EnergyMeter(energy_params or EnergyParams())
        #: Precharge counts by cause, for Fig. 13b.
        self.precharge_causes = {cause: 0 for cause in PrechargeCause}
        #: PCM write cancellations: PREs that aborted an in-flight
        #: programming pulse (always 0 on pulse-free technologies).
        self.write_cancels = 0
        #: Registry of open row slots, (bank index, slot key), kept in
        #: sync by issue_act/issue_precharge for the page policy's scan.
        #: A dict (insertion-ordered, values unused) so the scan order is
        #: reproducible -- set iteration order would depend on hashes.
        self.open_slots: dict = {}
        #: Open-slot counts per bank, kept in step with
        #: :attr:`open_slots`: ``open_counts[bank][s]`` counts sub-bank
        #: ``s`` and the last entry (index -1) the whole bank, so a
        #: refresh scope ``(bank, subbank)`` reads its count directly.
        self.open_counts: List[List[int]] = [
            [0] * (bank_geometry.subbanks + 1) for _ in range(n_banks)]
        #: Optional command log for post-hoc validation
        #: (:mod:`repro.dram.validation`).
        self.command_log: Optional[list] = [] if record_commands else None

    # -- addressing ------------------------------------------------------

    def bank_index(self, coords: DramCoordinates) -> int:
        """Flat bank index of (bank group, bank) within the channel."""
        return coords.bank_group * self.banks_per_group + coords.bank

    def bank(self, coords: DramCoordinates) -> Bank:
        """The :class:`~repro.dram.bank.Bank` serving these coords."""
        return self.banks[self.bank_index(coords)]

    # -- classification ---------------------------------------------------

    def classify(self, coords: DramCoordinates
                 ) -> Tuple[ActivationVerdict, Optional[SlotKey]]:
        """Fig. 5 activation verdict (and victim slot) for these coords."""
        return self.bank(coords).classify(coords.subbank, coords.row)

    # -- earliest legal issue times ---------------------------------------

    def earliest_act(self, coords: DramCoordinates) -> int:
        """Earliest legal ACT: command bus, ``tRRD``, the slot FSM, and
        any refresh blackout covering the slot's sub-bank."""
        bank_index = coords.bank_group * self.banks_per_group + coords.bank
        best = max(self.resources.earliest_act(),
                   self.banks[bank_index].earliest_act(coords.subbank,
                                                       coords.row))
        ru = self.resources.ref_until
        if ru is not None:
            v = ru[bank_index][coords.subbank]
            if v > best:
                best = v
        return best

    def earliest_column(self, coords: DramCoordinates,
                        is_write: bool) -> int:
        """Earliest legal RD/WR: shared CAS/bus windows + ``tRCD``."""
        bank_index = coords.bank_group * self.banks_per_group + coords.bank
        best = max(
            self.resources.earliest_column(
                is_write, coords.bank_group, bank_index),
            self.banks[bank_index].earliest_column(
                coords.subbank, coords.row, is_write),
        )
        ru = self.resources.ref_until
        if ru is not None:
            v = ru[bank_index][coords.subbank]
            if v > best:
                best = v
        return best

    def earliest_precharge(self, bank_index: int, slot: SlotKey,
                           cancel: bool = False) -> int:
        """Earliest legal PRE: command bus + the slot's ``tRAS``/``tWR``
        horizons.  ``cancel=True`` asks for the PCM write-cancellation
        floor when a pulse is in flight (a no-op on DRAM)."""
        best = max(self.resources.earliest_precharge(),
                   self.banks[bank_index].earliest_precharge(slot, cancel))
        ru = self.resources.ref_until
        if ru is not None:
            v = ru[bank_index][slot[0]]
            if v > best:
                best = v
        return best

    # -- refresh ----------------------------------------------------------

    def refresh_scope_open(self, bank_index: int = -1,
                           subbank: int = -1) -> list:
        """Open slots inside a refresh scope, as (bank index, slot key).

        ``bank_index < 0`` scopes the whole rank (all-bank REF);
        ``subbank >= 0`` narrows a bank to one sub-bank (SARP).  A
        refresh may only issue once this list is empty.  The list is in
        bank/slot order, which decides which row a refresh chain closes
        first.  :attr:`open_counts` (or ``open_slots`` for the rank)
        answers emptiness in O(1).
        """
        out = []
        indices = (range(len(self.banks)) if bank_index < 0
                   else (bank_index,))
        for bi in indices:
            for key, slot in self.banks[bi].slots.items():
                if subbank >= 0 and key[0] != subbank:
                    continue
                if slot.active_row is not None:
                    out.append((bi, key))
        return out

    def refresh_duration(self, bank_index: int = -1,
                         subbank: int = -1) -> int:
        """Blackout length of a refresh to this scope: ``tRFC`` all-bank,
        ``tRFCpb`` per-bank, and half of ``tRFCpb`` for one sub-bank
        (half the rows are walked)."""
        t = self.timing
        if bank_index < 0:
            return t.tRFC
        if subbank < 0:
            return t.trfc_pb
        return (t.trfc_pb + 1) // 2

    def earliest_refresh(self, bank_index: int = -1,
                         subbank: int = -1) -> int:
        """Earliest legal REF/REFpb to a fully precharged scope: command
        bus, ``tRP``/``tRC`` from every slot in scope, and the end of
        any overlapping blackout."""
        best = self.resources.cmd_bus_free
        ru = self.resources.ref_until
        indices = (range(len(self.banks)) if bank_index < 0
                   else (bank_index,))
        for bi in indices:
            for key, slot in self.banks[bi].slots.items():
                if subbank >= 0 and key[0] != subbank:
                    continue
                if slot.act_allowed > best:
                    best = slot.act_allowed
            if ru is not None:
                row = ru[bi]
                if subbank < 0:
                    v = row[0] if row[0] >= row[1] else row[1]
                else:
                    v = row[subbank]
                if v > best:
                    best = v
        return best

    def explain_refresh(self, bank_index: int = -1,
                        subbank: int = -1) -> list:
        """Tagged floors of :meth:`earliest_refresh`."""
        return [(FLOOR_BUS, self.resources.cmd_bus_free),
                (FLOOR_REFRESH, self.earliest_refresh(bank_index, subbank))]

    # -- explain API (cycle accounting) -----------------------------------
    #
    # The ``explain_*`` methods mirror their ``earliest_*`` twins as
    # tagged (tag, time) floors: the max floor time equals the earliest
    # legal issue time exactly.  They must be called *before* the
    # command is issued (they read pre-issue state) and exist only for
    # observability -- the scheduler never calls them.

    def _add_bank_floors(self, floors: list, bank_index: int,
                         subbank: int, bank_floor: int) -> list:
        """Append the slot's bank floor and, with refresh on, its
        refresh-blackout floor to a fresh resource-floor list."""
        floors.append((FLOOR_BANK, bank_floor))
        ru = self.resources.ref_until
        if ru is not None:
            floors.append((FLOOR_REFRESH, ru[bank_index][subbank]))
        return floors

    def explain_act(self, coords: DramCoordinates) -> list:
        """Tagged floors of :meth:`earliest_act` for these coordinates."""
        bank_index = self.bank_index(coords)
        return self._add_bank_floors(
            self.resources.act_floors(), bank_index, coords.subbank,
            self.banks[bank_index].earliest_act(coords.subbank,
                                                coords.row))

    def explain_column(self, coords: DramCoordinates,
                       is_write: bool) -> list:
        """Tagged floors of :meth:`earliest_column`."""
        bank_index = self.bank_index(coords)
        return self._add_bank_floors(
            self.resources.column_floors(
                is_write, coords.bank_group, bank_index),
            bank_index, coords.subbank,
            self.banks[bank_index].earliest_column(
                coords.subbank, coords.row, is_write))

    def explain_precharge(self, bank_index: int, slot: SlotKey,
                          cancel: bool = False) -> list:
        """Tagged floors of :meth:`earliest_precharge`."""
        return self._add_bank_floors(
            self.resources.precharge_floors(), bank_index, slot[0],
            self.banks[bank_index].earliest_precharge(slot, cancel))

    # -- committed issues --------------------------------------------------

    def issue_act(self, coords: DramCoordinates, time: int) -> bool:
        """Issue an ACT; returns whether it was an EWLR hit."""
        bank_index = coords.bank_group * self.banks_per_group + coords.bank
        bank = self.banks[bank_index]
        ewlr_hit = bank.do_activate(coords.subbank, coords.row, time)
        self.resources.record_act(time)
        self.energy.record_act(ewlr_hit=ewlr_hit)
        slot = bank.slot_key(coords.subbank, coords.row)
        self.open_slots[(bank_index, slot)] = None
        counts = self.open_counts[bank_index]
        counts[coords.subbank] += 1
        counts[-1] += 1
        if self.command_log is not None:
            from repro.dram.validation import CommandRecord
            self.command_log.append(CommandRecord(
                "ACT", time, bank_index, coords.bank_group, slot,
                coords.row))
        return ewlr_hit

    def issue_column(self, coords: DramCoordinates, time: int,
                     is_write: bool) -> int:
        """Issue a RD/WR; returns the data-burst completion time."""
        bank_index = coords.bank_group * self.banks_per_group + coords.bank
        bank = self.banks[bank_index]
        bank.do_column(coords.subbank, coords.row, time, is_write)
        data_end = self.resources.record_column(
            time, is_write, coords.bank_group, bank_index)
        if is_write:
            self.energy.record_write()
        else:
            self.energy.record_read()
        if self.command_log is not None:
            from repro.dram.validation import CommandRecord
            self.command_log.append(CommandRecord(
                "WR" if is_write else "RD", time, bank_index,
                coords.bank_group, bank.slot_key(coords.subbank,
                                                 coords.row)))
        return data_end

    def issue_precharge(self, bank_index: int, slot: SlotKey, time: int,
                        cause: PrechargeCause) -> bool:
        """Issue a PRE; returns whether it was a partial precharge."""
        bank = self.banks[bank_index]
        partial = bank.partial_precharge_possible(slot)
        cancelled = bank.do_precharge(slot, time)
        if cancelled:
            # The aborted write replays after the next ACT: count the
            # cancellation and charge the second programming burst.
            self.write_cancels += 1
            self.energy.record_write()
        self.resources.record_precharge(time)
        self.energy.record_precharge(partial=partial)
        self.precharge_causes[cause] += 1
        self.open_slots.pop((bank_index, slot), None)
        counts = self.open_counts[bank_index]
        counts[slot[0]] -= 1
        counts[-1] -= 1
        if self.command_log is not None:
            from repro.dram.validation import CommandRecord
            self.command_log.append(CommandRecord(
                "PRE_PARTIAL" if partial else "PRE", time, bank_index,
                bank_index // self.banks_per_group, slot))
        return partial

    def issue_refresh(self, time: int, bank_index: int = -1,
                      subbank: int = -1) -> int:
        """Issue a REF/REFpb; returns the blackout end time.

        Every slot in scope must already be precharged (the policies
        close them first, counting those precharges under
        :attr:`~repro.dram.commands.PrechargeCause.REFRESH`).
        """
        if (len(self.open_slots) if bank_index < 0
                else self.open_counts[bank_index][subbank]):
            raise ValueError(
                f"refresh at {time} with open rows in scope: "
                f"{self.refresh_scope_open(bank_index, subbank)}")
        duration = self.refresh_duration(bank_index, subbank)
        end = self.resources.record_refresh(
            time, duration, bank_index, subbank)
        if self.command_log is not None:
            from repro.dram.validation import CommandRecord
            self.command_log.append(CommandRecord(
                "REF" if bank_index < 0 else "REFPB", time, bank_index,
                -1 if bank_index < 0
                else bank_index // self.banks_per_group,
                (subbank if subbank >= 0 else -1, -1)))
        return end

    # -- introspection -----------------------------------------------------

    def open_row(self, coords: DramCoordinates) -> Optional[int]:
        """The row open in the slot these coords map to, if any."""
        bank = self.bank(coords)
        return bank.slot(coords.subbank, coords.row).active_row
