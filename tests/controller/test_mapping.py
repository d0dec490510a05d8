"""Unit and property tests for the address mapping (paper Fig. 9)."""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.controller.mapping import (
    AddressMapping,
    MappingConfig,
    PlanePlacement,
    RowLayout,
    skylake_mapping,
)
from repro.controller.transaction import DramCoordinates
from repro.sim import config as cfgs


class TestRowLayout:
    def test_plane_bits(self):
        assert RowLayout(plane_count=4).plane_bits == 2
        assert RowLayout(plane_count=1, ewlr_bits=0).plane_bits == 0
        assert RowLayout(plane_count=16).plane_bits == 4

    def test_rejects_non_power_of_two_planes(self):
        with pytest.raises(ValueError):
            RowLayout(plane_count=3)

    def test_rejects_fields_wider_than_row(self):
        with pytest.raises(ValueError):
            RowLayout(row_bits=4, plane_count=8, ewlr_bits=3)

    def test_msb_plane_id_uses_top_bits(self):
        layout = RowLayout(row_bits=16, plane_count=4,
                           plane_placement=PlanePlacement.MSB)
        assert layout.plane_id(0b11 << 14, 0, rap=False) == 3
        assert layout.plane_id(0b01 << 14, 0, rap=False) == 1

    def test_lsb_plane_id_uses_bottom_bits(self):
        layout = RowLayout(row_bits=16, plane_count=4,
                           plane_placement=PlanePlacement.LSB)
        assert layout.plane_id(0b10, 0, rap=False) == 2

    def test_rap_inverts_plane_on_right_subbank_only(self):
        layout = RowLayout(row_bits=16, plane_count=4)
        row = 0b01 << 14
        assert layout.plane_id(row, 0, rap=True) == 1
        assert layout.plane_id(row, 1, rap=True) == 0b10  # inverted
        assert layout.plane_id(row, 1, rap=False) == 1

    def test_rap_makes_identical_rows_land_in_distinct_planes(self):
        layout = RowLayout(row_bits=16, plane_count=2)
        for row in (0, 1 << 15, 0x1234, 0xFFFF):
            left = layout.plane_id(row, 0, rap=True)
            right = layout.plane_id(row, 1, rap=True)
            assert left != right

    def test_mwl_tag_masks_ewlr_field_msb_placement(self):
        layout = RowLayout(row_bits=16, plane_count=4, ewlr_bits=3,
                           plane_placement=PlanePlacement.MSB)
        # EWLR offset occupies bits [11:14) (below the 2 plane bits).
        row = 0x1234
        assert layout.mwl_tag(row) == row & ~(0b111 << 11)
        assert layout.mwl_tag(row) == layout.mwl_tag(row ^ (0b101 << 11))

    def test_mwl_tag_masks_ewlr_field_lsb_placement(self):
        layout = RowLayout(row_bits=16, plane_count=4, ewlr_bits=3,
                           plane_placement=PlanePlacement.LSB)
        # Plane bits [0:2), EWLR offset bits [2:5).
        row = 0x1234
        assert layout.mwl_tag(row) == row & ~(0b111 << 2)

    def test_ewlr_offset_extraction(self):
        layout = RowLayout(row_bits=16, plane_count=4, ewlr_bits=3,
                           plane_placement=PlanePlacement.MSB)
        row = 0b101 << 11
        assert layout.ewlr_offset(row) == 0b101

    def test_no_ewlr_means_full_row_tag(self):
        layout = RowLayout(plane_count=4, ewlr_bits=0)
        assert layout.mwl_tag(0xBEEF) == 0xBEEF


class TestMappingConfig:
    def test_default_geometry_matches_tab3(self):
        cfg = MappingConfig()
        assert cfg.channels == 2
        assert cfg.banks == 16
        assert cfg.bank_groups == 4

    def test_capacity(self):
        cfg = MappingConfig()
        assert cfg.capacity_bytes == 1 << cfg.total_bits


class TestDecodeEncode:
    def test_offset_bits_ignored(self):
        m = skylake_mapping()
        a = m.decode(0x1000)
        b = m.decode(0x1000 + 63)
        assert a == b

    def test_consecutive_lines_interleave_channels(self):
        m = skylake_mapping()
        line = 64
        # col_lo covers 3 bits above the offset, then the channel bit.
        a = m.decode(0)
        b = m.decode(line << 3)
        assert a.channel != b.channel

    def test_row_in_msbs(self):
        m = skylake_mapping()
        step = 1 << (m.config.total_bits - m.config.row_bits)
        a = m.decode(0)
        b = m.decode(step)
        assert b.row == a.row + 1

    def test_xor_hash_spreads_adjacent_rows_across_groups(self):
        m = skylake_mapping()
        row_stride = 1 << m._row_shift
        groups = {m.decode(i * row_stride).bank_group for i in range(4)}
        assert len(groups) == 4

    def test_subbanked_mapping_has_subbank_bit(self):
        m = skylake_mapping(subbanked=True)
        assert m.config.subbanks == 2
        seen = {m.decode(i << 6).subbank for i in range(4096)}
        assert seen == {0, 1}

    def test_subbanked_and_flat_capacity_match(self):
        flat = skylake_mapping().config
        sub = skylake_mapping(subbanked=True).config
        assert flat.total_bits == sub.total_bits


@st.composite
def addresses(draw, mapping):
    return draw(st.integers(min_value=0,
                            max_value=mapping.config.capacity_bytes - 1))


class TestRoundTrip:
    @settings(max_examples=300)
    @given(data=st.data())
    def test_encode_decode_roundtrip_flat(self, data):
        m = skylake_mapping()
        addr = data.draw(addresses(m)) & ~63  # line-aligned
        assert m.encode(m.decode(addr)) == addr

    @settings(max_examples=300)
    @given(data=st.data())
    def test_encode_decode_roundtrip_subbanked(self, data):
        m = skylake_mapping(subbanked=True)
        addr = data.draw(addresses(m)) & ~63
        assert m.encode(m.decode(addr)) == addr

    @settings(max_examples=300)
    @given(data=st.data())
    def test_roundtrip_without_xor_hash(self, data):
        cfg = MappingConfig(xor_hash=False)
        m = AddressMapping(cfg)
        addr = data.draw(st.integers(0, cfg.capacity_bytes - 1)) & ~63
        assert m.encode(m.decode(addr)) == addr

    @settings(max_examples=200)
    @given(data=st.data())
    def test_distinct_lines_decode_to_distinct_coords(self, data):
        m = skylake_mapping()
        a = data.draw(addresses(m)) & ~63
        b = data.draw(addresses(m)) & ~63
        if a != b:
            assert m.decode(a) != m.decode(b)

    @settings(max_examples=200)
    @given(data=st.data())
    def test_coords_in_range(self, data):
        m = skylake_mapping(subbanked=True)
        c = m.decode(data.draw(addresses(m)))
        cfg = m.config
        assert 0 <= c.channel < cfg.channels
        assert 0 <= c.bank_group < cfg.bank_groups
        assert 0 <= c.bank < cfg.banks_per_group
        assert 0 <= c.subbank < cfg.subbanks
        assert 0 <= c.row < (1 << cfg.row_bits)
        assert 0 <= c.column < (1 << cfg.column_bits)


def test_decode_rejects_out_of_range():
    m = skylake_mapping()
    with pytest.raises(ValueError):
        m.decode(m.config.capacity_bytes)
    with pytest.raises(ValueError):
        m.decode(-1)


def test_row_layout_mismatch_rejected():
    cfg = MappingConfig(row_bits=16)
    with pytest.raises(ValueError):
        AddressMapping(cfg, RowLayout(row_bits=17))


def test_global_bank_flattening():
    c = DramCoordinates(channel=0, rank=0, bank_group=2, bank=3,
                        subbank=0, row=0, column=0)
    assert c.global_bank(banks_per_group=4) == 11


def reference_decode(cfg: MappingConfig, address: int) -> DramCoordinates:
    """Slice ``address`` field by field, LSB first, the plain way."""
    order = ["offset", "col_lo", "channel", "bank_group"]
    order += ["subbank"] if cfg.subbank_low else []
    order += ["col_hi", "bank", "rank"]
    order += [] if cfg.subbank_low else ["subbank"]
    order += ["row"]
    field = {}
    for name in order:
        width = getattr(cfg, f"{name}_bits")
        field[name] = address % (1 << width)
        address //= 1 << width
    assert address == 0
    bank_group, bank, row = field["bank_group"], field["bank"], field["row"]
    if cfg.xor_hash:
        bank_group ^= row % (1 << cfg.bank_group_bits)
        bank ^= (row >> cfg.bank_group_bits) % (1 << cfg.bank_bits)
    return DramCoordinates(
        channel=field["channel"], rank=field["rank"],
        bank_group=bank_group, bank=bank, subbank=field["subbank"],
        row=row,
        column=field["col_hi"] * (1 << cfg.col_lo_bits) + field["col_lo"])


def _decode_variants():
    """Every preset's mapping with the XOR hash on and off, both
    sub-bank placements, plus a ranked geometry no preset uses."""
    out = []
    for preset in cfgs.all_presets():
        mapping = preset.mapping()
        for xor_hash in (True, False):
            for subbank_low in (True, False):
                out.append((f"{preset.name}-xor{int(xor_hash)}"
                            f"-low{int(subbank_low)}",
                            AddressMapping(
                                replace(mapping.config, xor_hash=xor_hash,
                                        subbank_low=subbank_low),
                                mapping.row_layout)))
    ranked = MappingConfig(rank_bits=1, subbank_bits=1, row_bits=15)
    out.append(("ranked", AddressMapping(ranked)))
    return out


@pytest.mark.parametrize("name,mapping", _decode_variants(),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_decode_matches_reference_bit_slicer(name, mapping):
    rng = random.Random(name)
    cfg = mapping.config
    for _ in range(300):
        address = rng.randrange(cfg.capacity_bytes)
        coords = mapping.decode(address)
        assert type(coords) is DramCoordinates
        assert coords == reference_decode(cfg, address)
        line = address & ~((1 << cfg.offset_bits) - 1)
        assert mapping.encode(coords) == line


def test_coordinates_are_immutable_and_hashable():
    c = skylake_mapping().decode(0x12345 << 6)
    with pytest.raises(AttributeError):
        c.row = 0
    assert hash(c) == hash(skylake_mapping().decode(0x12345 << 6))
    assert c._replace(row=c.row) == c
