"""Tests for the timed bank FSM across organisations."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.controller.mapping import RowLayout
from repro.core.subbank import ActivationVerdict
from repro.dram.bank import NEVER, Bank, BankGeometry
from repro.dram.timing import ddr4_timings

T = ddr4_timings()


def full_bank():
    return Bank(BankGeometry(subbanks=1, row_bits=17), T)


def vsb_bank(planes=4, ewlr=True, rap=True):
    layout = RowLayout(row_bits=16, plane_count=planes,
                       ewlr_bits=3 if ewlr else 0)
    return Bank(BankGeometry(subbanks=2, row_bits=16), T, layout,
                ewlr=ewlr, rap=rap)


def masa_bank(groups=8, tSA=4000):
    return Bank(BankGeometry(subbanks=1, subarray_groups=groups,
                             row_bits=17, tSA=tSA), T)


class TestGeometry:
    def test_rejects_three_subbanks(self):
        with pytest.raises(ValueError):
            BankGeometry(subbanks=3)

    def test_rejects_non_pow2_groups(self):
        with pytest.raises(ValueError):
            BankGeometry(subarray_groups=3)

    def test_group_of_uses_row_msbs(self):
        g = BankGeometry(subarray_groups=4, row_bits=16)
        assert g.group_of(0) == 0
        assert g.group_of(0b11 << 14) == 3

    def test_single_group_always_zero(self):
        g = BankGeometry(subarray_groups=1, row_bits=16)
        assert g.group_of(0xFFFF) == 0

    def test_ewlr_requires_subbanks(self):
        with pytest.raises(ValueError):
            Bank(BankGeometry(subbanks=1), T, ewlr=True)


class TestFullBankTiming:
    def test_act_then_column_after_trcd(self):
        b = full_bank()
        b.do_activate(0, 5, time=0)
        assert b.earliest_column(0, 5) == T.tRCD

    def test_column_before_trcd_rejected(self):
        b = full_bank()
        b.do_activate(0, 5, time=0)
        with pytest.raises(ValueError):
            b.do_column(0, 5, time=T.tRCD - 1, is_write=False)

    def test_precharge_respects_tras(self):
        b = full_bank()
        b.do_activate(0, 5, time=0)
        assert b.earliest_precharge((0, 0)) == T.tRAS
        with pytest.raises(ValueError):
            b.do_precharge((0, 0), time=T.tRAS - 1)

    def test_act_after_pre_waits_trp(self):
        b = full_bank()
        b.do_activate(0, 5, time=0)
        b.do_precharge((0, 0), time=T.tRAS)
        assert b.earliest_act(0, 7) == T.tRAS + T.tRP

    def test_act_to_act_respects_trc(self):
        b = full_bank()
        b.do_activate(0, 5, time=0)
        slot = b.slot(0, 5)
        assert slot.act_allowed == T.tRC

    def test_read_pushes_pre_by_trtp(self):
        b = full_bank()
        b.do_activate(0, 5, time=0)
        t_rd = T.tRCD + ((T.tRAS) // 2)
        b.do_column(0, 5, time=t_rd, is_write=False)
        assert b.earliest_precharge((0, 0)) == max(T.tRAS, t_rd + T.tRTP)

    def test_write_recovery_delays_precharge(self):
        b = full_bank()
        b.do_activate(0, 5, time=0)
        t_wr = T.tRCD
        b.do_column(0, 5, time=t_wr, is_write=True)
        expected = t_wr + T.tCWL + T.burst_time + T.tWR
        assert b.earliest_precharge((0, 0)) == max(T.tRAS, expected)

    def test_column_to_closed_row_rejected(self):
        b = full_bank()
        b.do_activate(0, 5, time=0)
        with pytest.raises(ValueError):
            b.do_column(0, 6, time=T.tRCD, is_write=False)

    def test_row_conflict_reports_own_slot(self):
        b = full_bank()
        b.do_activate(0, 5, time=0)
        verdict, victim = b.classify(0, 6)
        assert verdict is ActivationVerdict.OWN_ROW_CONFLICT
        assert victim == (0, 0)

    def test_precharge_idle_rejected(self):
        b = full_bank()
        with pytest.raises(ValueError):
            b.do_precharge((0, 0), time=0)


class TestVsbBank:
    def test_two_open_rows(self):
        b = vsb_bank()
        b.do_activate(0, 0x0001, time=0)
        b.do_activate(1, 0x4002, time=T.tRRD)
        assert len(b.open_rows()) == 2

    def test_plane_conflict_names_victim(self):
        b = vsb_bank(ewlr=False, rap=False)
        row_a = 0b01 << 14
        b.do_activate(0, row_a, time=0)
        verdict, victim = b.classify(1, row_a | 1)
        assert verdict is ActivationVerdict.PLANE_CONFLICT
        assert victim == (0, 0)

    def test_ewlr_hit_detected_and_timed(self):
        b = vsb_bank(ewlr=True, rap=False)
        base = 0b01 << 14
        b.do_activate(0, base, time=0)
        near = base | (1 << 11)  # same MWL tag, different LWL_SEL
        verdict, _ = b.classify(1, near)
        assert verdict is ActivationVerdict.EWLR_HIT
        b.do_activate(1, near, time=100)
        assert b.slot(1, near).ready_col == 100 + T.tRCD

    def test_partial_precharge_possible_inside_ewlr(self):
        b = vsb_bank(ewlr=True, rap=False)
        base = 0b01 << 14
        b.do_activate(0, base, time=0)
        b.do_activate(1, base | (1 << 11), time=10)
        assert b.partial_precharge_possible((0, 0))
        assert b.partial_precharge_possible((1, 0))

    def test_partial_precharge_not_possible_apart(self):
        b = vsb_bank(ewlr=True, rap=False)
        b.do_activate(0, 0b01 << 14, time=0)
        b.do_activate(1, 0b10 << 14, time=10)
        assert not b.partial_precharge_possible((0, 0))

    def test_subbank_timing_independent(self):
        b = vsb_bank()
        b.do_activate(0, 0x0001, time=0)
        # Sub-bank 1 is untouched: it may activate immediately.
        assert b.earliest_act(1, 0x8000) == 0


class TestMasaBank:
    def test_multiple_groups_hold_rows(self):
        b = masa_bank(groups=4)
        quarter = 1 << 15  # row_bits=17, 4 groups
        b.do_activate(0, 0, time=0)
        b.do_activate(0, quarter, time=T.tRRD)
        assert len(b.open_rows()) == 2

    def test_same_group_conflict(self):
        b = masa_bank(groups=4)
        b.do_activate(0, 0, time=0)
        verdict, victim = b.classify(0, 1)
        assert verdict is ActivationVerdict.OWN_ROW_CONFLICT
        assert victim == (0, 0)

    def test_tsa_penalty_on_group_switch(self):
        b = masa_bank(groups=4, tSA=4000)
        quarter = 1 << 15
        b.do_activate(0, 0, time=0)
        b.do_activate(0, quarter, time=T.tRRD)
        b.do_column(0, 0, time=T.tRCD, is_write=False)
        # Next column to the *other* group pays tSA on top of its tRCD.
        base_ready = b.slots[(0, 1)].ready_col
        assert b.earliest_column(0, quarter) == base_ready + 4000

    def test_no_tsa_penalty_same_group(self):
        b = masa_bank(groups=4, tSA=4000)
        b.do_activate(0, 0, time=0)
        b.do_column(0, 0, time=T.tRCD, is_write=False)
        assert b.earliest_column(0, 0) == b.slots[(0, 0)].ready_col

    def test_precharge_clears_tsa_anchor(self):
        b = masa_bank(groups=4, tSA=4000)
        b.do_activate(0, 0, time=0)
        b.do_column(0, 0, time=T.tRCD, is_write=False)
        b.do_precharge((0, 0), time=max(T.tRAS, T.tRCD + T.tRTP))
        quarter = 1 << 15
        b.do_activate(0, quarter, time=T.tRC)
        assert b.earliest_column(0, quarter) == b.slots[(0, 1)].ready_col


class TestMasaEruca:
    """MASA groups combined with VSB sub-banks (Fig. 15's MASA8+ERUCA)."""

    def make(self):
        layout = RowLayout(row_bits=16, plane_count=4, ewlr_bits=3)
        geo = BankGeometry(subbanks=2, subarray_groups=8, row_bits=16,
                           tSA=4000)
        return Bank(geo, T, layout, ewlr=True, rap=True)

    def test_slot_count(self):
        assert len(self.make().slots) == 16

    def test_plane_check_scans_all_other_subbank_groups(self):
        b = self.make()
        # Open a row in sub-bank 1 whose RAP-inverted plane is 1.
        row_r = 0b10 << 14
        b.do_activate(1, row_r, time=0)
        # Sub-bank 0 row in plane 1 with a different MWL: plane conflict.
        row_l = (0b01 << 14) | 1
        verdict, victim = b.classify(0, row_l)
        assert verdict is ActivationVerdict.PLANE_CONFLICT
        assert victim[0] == 1

    def test_tsa_only_within_subbank(self):
        b = self.make()
        b.do_activate(0, 0, time=0)
        b.do_activate(1, 0x8000, time=T.tRRD)
        b.do_column(0, 0, time=T.tRCD, is_write=False)
        # Column to the other *sub-bank* pays no tSA (dedicated GBLs).
        assert (b.earliest_column(1, 0x8000)
                == b.slot(1, 0x8000).ready_col)


@settings(max_examples=150, deadline=None)
@given(
    rows=st.lists(st.integers(0, (1 << 17) - 1), min_size=1, max_size=12),
)
def test_full_bank_never_exceeds_one_open_row(rows):
    """Property: a full bank serialises rows through PRE, one open max."""
    b = full_bank()
    time = 0
    for row in rows:
        verdict, victim = b.classify(0, row)
        if verdict is ActivationVerdict.OWN_ROW_CONFLICT:
            time = max(time, b.earliest_precharge(victim))
            b.do_precharge(victim, time)
        if verdict is not ActivationVerdict.ROW_HIT:
            time = max(time + 1, b.earliest_act(0, row))
            b.do_activate(0, row, time)
        assert len(b.open_rows()) == 1
        assert b.slot(0, row).active_row == row


@settings(max_examples=150, deadline=None)
@given(
    planes=st.sampled_from([2, 4, 8]),
    ewlr=st.booleans(),
    rap=st.booleans(),
    ops=st.lists(
        st.tuples(st.integers(0, 1), st.integers(0, 0xFFFF)),
        min_size=1, max_size=16),
)
def test_vsb_bank_invariants(planes, ewlr, rap, ops):
    """Property: following classify() verdicts never raises, and at no
    point do the two sub-banks hold plane-conflicting rows."""
    layout = RowLayout(row_bits=16, plane_count=planes,
                       ewlr_bits=3 if ewlr else 0)
    b = Bank(BankGeometry(subbanks=2, row_bits=16), T, layout,
             ewlr=ewlr, rap=rap)
    time = 0
    for subbank, row in ops:
        verdict, victim = b.classify(subbank, row)
        while verdict in (ActivationVerdict.OWN_ROW_CONFLICT,
                          ActivationVerdict.PLANE_CONFLICT):
            time = max(time + 1, b.earliest_precharge(victim))
            b.do_precharge(victim, time)
            verdict, victim = b.classify(subbank, row)
        if verdict is not ActivationVerdict.ROW_HIT:
            time = max(time + 1, b.earliest_act(subbank, row))
            b.do_activate(subbank, row, time)
        open_rows = b.open_rows()
        assert b.slot(subbank, row).active_row == row
        if len(open_rows) == 2:
            (r0, r1) = (open_rows[(0, 0)], open_rows[(1, 0)])
            p0 = layout.plane_id(r0, 0, rap)
            p1 = layout.plane_id(r1, 1, rap)
            if p0 == p1:
                if ewlr:
                    assert layout.mwl_tag(r0) == layout.mwl_tag(r1)
                else:
                    assert r0 == r1


class TestDoActivateVerdict:
    """``do_activate`` reports the EWLR hit its legality check found,
    and the check itself still rejects illegal and early ACTs."""

    def test_returns_ewlr_hit_flag(self):
        b = vsb_bank(ewlr=True, rap=False)
        base = 0b01 << 14
        assert b.do_activate(0, base, time=0) is False
        near = base | (1 << 11)  # same plane and MWL tag
        assert b.classify(1, near)[0] is ActivationVerdict.EWLR_HIT
        assert b.do_activate(1, near, time=100) is True

    def test_plain_act_is_not_an_ewlr_hit(self):
        assert full_bank().do_activate(0, 5, time=0) is False
        assert masa_bank().do_activate(0, 5, time=0) is False

    def test_illegal_verdicts_raise(self):
        b = vsb_bank(ewlr=False, rap=False)
        row = 0b01 << 14
        b.do_activate(0, row, time=0)
        with pytest.raises(ValueError, match="illegal ACT"):
            b.do_activate(0, row, time=T.tRC)  # ROW_HIT
        with pytest.raises(ValueError, match="illegal ACT"):
            b.do_activate(0, row + 1, time=T.tRC)  # OWN_ROW_CONFLICT
        with pytest.raises(ValueError, match="illegal ACT"):
            b.do_activate(1, row | 1, time=T.tRC)  # PLANE_CONFLICT

    def test_early_act_raises(self):
        b = full_bank()
        b.do_activate(0, 5, time=0)
        b.do_precharge((0, 0), time=T.tRAS)
        with pytest.raises(ValueError, match="act_allowed"):
            b.do_activate(0, 6, time=T.tRAS + T.tRP - 1)
        assert b.do_activate(0, 6, time=max(T.tRC, T.tRAS + T.tRP)) \
            is False

    def test_masa_slot_keys_follow_row_msbs(self):
        b = masa_bank(groups=4)
        quarter = 1 << 15
        assert [b.slot_key(0, g * quarter) for g in range(4)] == \
            [(0, g) for g in range(4)]
        assert vsb_bank().slot_key(1, 0xFFFF) == (1, 0)
