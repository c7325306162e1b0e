from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from brepcodec.codec import (
    MODE_DONE,
    MODE_RQ,
    CapacityError,
    CodecConfig,
    DuplicateVertexError,
    GrammarError,
    GrammarState,
    VocabLayout,
    allowed_tokens,
    canonical_order,
    dequantize_coord,
    initial_state,
    parse,
    quantize_coord,
    sequence_token_count,
    step,
    tokenize,
    validity_mask,
)
from brepcodec.geometry import LineSegment
from brepcodec.model import BrepModel, Edge, normalize
from brepcodec.pipeline import lossless_codebook
from brepcodec.primitives import box, merge_models

LAYOUT = VocabLayout()  # 128 coords, 256 pointers, 4 x 257 rq, 3 specials


def two_vertex_model(p0, p1):
    return BrepModel(
        vertices=np.array([p0, p1], dtype=float),
        edges=[Edge(curve=LineSegment(p0, p1), v0=0, v1=1, halfedges=(0, 1))],
        halfedges=[], loops=[], faces=[])


class TestQuantize:
    def test_examples(self):
        assert quantize_coord(0.0) == 0
        assert dequantize_coord(0) == 0.00390625
        assert quantize_coord(0.999) == 127
        assert quantize_coord(0.25) == 32
        assert abs(0.25 - dequantize_coord(32)) == 0.00390625

    def test_range_errors(self):
        with pytest.raises(Exception):
            quantize_coord(-0.001)
        with pytest.raises(Exception):
            quantize_coord(1.0)
        with pytest.raises(Exception):
            dequantize_coord(128)

    @given(st.floats(min_value=0.0, max_value=1.0, exclude_max=True,
                     allow_nan=False))
    def test_roundtrip_bound(self, x):
        k = quantize_coord(x)
        assert 0 <= k < 128
        assert abs(x - dequantize_coord(k)) <= 1.0 / 256.0


class TestCanonicalOrder:
    def test_cube_extremes(self, cube_normed):
        order, comps = canonical_order(cube_normed)
        v = cube_normed.vertices
        first, last = v[order[0]], v[order[-1]]
        assert np.all(first <= v.min(axis=0) + 1e-12)
        assert np.all(last >= v.max(axis=0) - 1e-12)

    def test_component_order_by_min_z(self):
        m = merge_models([box(at=(0, 0, 0.5)), box(at=(2.5, 0, 0))])
        normed, _ = normalize(m)
        _, comps = canonical_order(normed)
        z0 = normed.vertices[comps[0][0]][2]
        z1 = normed.vertices[comps[1][0]][2]
        assert z0 < z1  # ground cube's component first

    def test_zyx_tie_example(self):
        # positions as (x, y, z); ordering compares (z, y, x)
        a = (0.1, 0.2, 0.5)
        b = (0.9, 0.1, 0.5)
        m = two_vertex_model(a, b)
        order, _ = canonical_order(m)
        assert order == [1, 0]  # same z, smaller y precedes

    def test_duplicate_positions_rejected(self):
        m = two_vertex_model((0.25, 0.25, 0.25), (0.25, 0.25, 0.25))
        with pytest.raises(DuplicateVertexError):
            canonical_order(m)


class TestVocabLayout:
    def test_ranges_partition(self):
        seen = set()
        for tid in range(LAYOUT.vocab_size):
            kind = LAYOUT.classify(tid)
            seen.add(tid)
            if kind[0] == "coord":
                assert LAYOUT.coord_token(kind[1]) == tid
            elif kind[0] == "pointer":
                assert LAYOUT.pointer_token(kind[1]) == tid
            elif kind[0] == "rq":
                assert LAYOUT.rq_token(kind[1], kind[2]) == tid
        assert len(seen) == LAYOUT.vocab_size
        with pytest.raises(Exception):
            LAYOUT.classify(LAYOUT.vocab_size)

    def test_hash_depends_on_parameters(self):
        other = VocabLayout(pointer_max=128)
        assert other.layout_hash() != LAYOUT.layout_hash()


class TestTokenizeCounts:
    def test_formula(self):
        assert sequence_token_count(2, 1) == 17
        assert sequence_token_count(8, 12) == 134
        assert sequence_token_count(16, 24, 4, 2) == 267

    def test_cube_and_two_cubes(self, cube_normed):
        cb = lossless_codebook(cube_normed)
        seq = tokenize(cube_normed, cb)
        assert len(seq.tokens) == 134

        mm, _ = normalize(merge_models([box(), box(at=(2, 0, 0))]))
        cb2 = lossless_codebook(mm)
        seq2 = tokenize(mm, cb2)
        assert len(seq2.tokens) == 267
        layout = VocabLayout.for_codebook(cb2)
        assert seq2.tokens.count(layout.sep) == 1

    def test_cylinder_self_loops(self, cylinder_normed):
        cb = lossless_codebook(cylinder_normed)
        seq = tokenize(cylinder_normed, cb)
        assert len(seq.tokens) == sequence_token_count(2, 3)
        rs = parse(seq, cb)
        pairs = sorted((e.i, e.j) for e in rs.components[0].edges)
        assert pairs == [(0, 0), (0, 1), (1, 1)]

    def test_component_capacity_error(self, cube_normed):
        cb = lossless_codebook(cube_normed)
        with pytest.raises(CapacityError):
            tokenize(cube_normed, cb, CodecConfig(pointer_max=4))

    def test_max_tokens_capacity_error(self, cube_normed):
        cb = lossless_codebook(cube_normed)
        with pytest.raises(CapacityError):
            tokenize(cube_normed, cb, CodecConfig(max_tokens=50))


class TestParse:
    def test_cube_adjacency_isomorphic(self, cube_normed):
        cb = lossless_codebook(cube_normed)
        seq = tokenize(cube_normed, cb)
        rs = parse(seq, cb)
        assert len(rs.components) == 1
        comp = rs.components[0]
        order, _ = canonical_order(cube_normed)
        local = {v: i for i, v in enumerate(order)}
        expect = Counter()
        for e in cube_normed.edges:
            expect[tuple(sorted((local[e.v0], local[e.v1])))] += 1
        got = Counter(tuple(sorted((e.i, e.j))) for e in comp.edges)
        assert got == expect
        assert np.abs(comp.positions
                      - cube_normed.vertices[order]).max() <= 1 / 256

    def test_empty_sequence(self):
        rs = parse([LAYOUT.start, LAYOUT.end], layout=LAYOUT)
        assert rs.components == []

    def test_forward_reference_error(self):
        toks = [LAYOUT.start, 0, 0, 0, LAYOUT.pointer_token(1)]
        with pytest.raises(GrammarError) as err:
            parse(toks + [LAYOUT.end], layout=LAYOUT)
        assert err.value.reason == "forward-reference"
        assert err.value.position == 4

    def test_delimiter_mid_group(self):
        toks = [LAYOUT.start, 0, 0, 0, LAYOUT.pointer_token(0),
                LAYOUT.rq_token(0, 1), LAYOUT.end]
        with pytest.raises(GrammarError) as err:
            parse(toks, layout=LAYOUT)
        assert err.value.reason == "delimiter-position"

    def test_truncated_group(self):
        toks = [LAYOUT.start, 0, 0, 0, LAYOUT.pointer_token(0),
                LAYOUT.rq_token(0, 1)]
        with pytest.raises(GrammarError) as err:
            parse(toks, layout=LAYOUT)
        assert err.value.reason in ("incomplete-vertex", "incomplete-sequence")

    def test_wrong_rq_level(self):
        toks = [LAYOUT.start, 0, 0, 0, LAYOUT.pointer_token(0),
                LAYOUT.rq_token(1, 0)]
        with pytest.raises(GrammarError) as err:
            parse(toks + [LAYOUT.end], layout=LAYOUT)
        assert err.value.reason == "expected-rq"
        assert err.value.position == 5

    def test_self_loop_accepted(self):
        toks = [LAYOUT.start, 5, 6, 7, LAYOUT.pointer_token(0)]
        toks += [LAYOUT.rq_token(l, 0) for l in range(4)] * 2
        toks += [LAYOUT.end]
        rs = parse(toks, layout=LAYOUT)
        assert rs.components[0].edges[0].i == rs.components[0].edges[0].j == 0


class TestMasks:
    def test_initial_state_allows_only_coords(self):
        mask = validity_mask(initial_state(), LAYOUT)
        assert mask[: LAYOUT.coord_bins].all()
        assert not mask[LAYOUT.coord_bins:].any()

    def test_mid_rq_group(self):
        state = initial_state()
        for tok in [3, 4, 5, LAYOUT.pointer_token(0), LAYOUT.rq_token(0, 1),
                    LAYOUT.rq_token(1, 2), LAYOUT.rq_token(2, 0)]:
            state = step(state, tok, LAYOUT)
        mask = validity_mask(state, LAYOUT)
        lvl3 = LAYOUT.rq_base + 3 * LAYOUT.rq_level_size
        assert mask[lvl3: lvl3 + LAYOUT.rq_level_size].all()
        assert mask.sum() == LAYOUT.rq_level_size
        assert not mask[LAYOUT.sep] and not mask[LAYOUT.end]

    def test_after_complete_vertex_single_vertex_component(self):
        state = initial_state()
        for tok in [3, 4, 5]:
            state = step(state, tok, LAYOUT)
        mask = validity_mask(state, LAYOUT)
        assert mask[: LAYOUT.coord_bins].all()
        assert mask[LAYOUT.pointer_token(0)]
        assert not mask[LAYOUT.pointer_token(1)]
        assert mask[LAYOUT.sep] and mask[LAYOUT.end]

    def test_mask_equals_step_domain(self):
        def walk(layout, tokens):
            states = [initial_state()]
            for tok in tokens:
                states.append(step(states[-1], tok, layout))
            return states

        def group(layout):
            return [layout.rq_token(l % layout.rq_levels, 0)
                    for l in range(2 * layout.rq_levels)]

        L = LAYOUT
        states = walk(L, [3, 4, 5, L.pointer_token(0)] + group(L)
                      + [9, 9, 9, L.pointer_token(1)] + group(L)
                      + [L.sep, 7, 7, 7, 8, 8, 8, L.pointer_token(0)] + group(L)
                      + [L.end])
        assert {s.pos for s in states if s.mode == MODE_RQ} == set(range(8))
        assert states[-1] == GrammarState(MODE_DONE)
        small = VocabLayout(pointer_max=2)
        full = walk(small, [3, 4, 5, 6, 6, 6, small.pointer_token(1)] + group(small)
                    + [small.sep, 1, 1, 1, small.end])
        at_capacity = full[6]
        assert at_capacity.count == small.pointer_max
        with pytest.raises(GrammarError) as err:
            step(at_capacity, 0, small)
        assert err.value.reason == "component-capacity"

        for layout, walked in ((L, states), (small, full)):
            for state in walked:
                mask = validity_mask(state, layout)
                for tid in range(layout.vocab_size):
                    try:
                        step(state, tid, layout)
                        ok = True
                    except GrammarError as err:
                        ok = False
                        if state.mode == MODE_DONE:
                            assert err.reason == "trailing-token"
                    assert ok == bool(mask[tid]), (state, layout.classify(tid))
                allowed = allowed_tokens(state, layout)
                assert np.array_equal(allowed, np.flatnonzero(mask))
                assert np.all(np.diff(allowed) > 0)
            assert not validity_mask(walked[-1], layout).any()

    def test_tokenized_sequences_pass_masks(self, all_primitives):
        for src in all_primitives.values():
            m, _ = normalize(src)
            cb = lossless_codebook(m)
            seq = tokenize(m, cb)
            layout = VocabLayout.for_codebook(cb)
            assert seq.tokens[0] == layout.start
            state = initial_state()
            for tok in seq.tokens[1:]:
                assert validity_mask(state, layout)[tok]
                state = step(state, tok, layout)
            assert state == GrammarState(MODE_DONE)


class TestHeaders:
    def test_layout_hash_checked(self, cube_normed):
        cb = lossless_codebook(cube_normed)
        seq = tokenize(cube_normed, cb)
        other = VocabLayout(pointer_max=64)
        with pytest.raises(Exception):
            parse(seq, layout=other, cfg=CodecConfig(pointer_max=64))

    def test_transform_rides_along(self, unit_cube):
        from brepcodec.pipeline import encode_model

        cb = lossless_codebook(normalize(unit_cube)[0])
        seq = encode_model(unit_cube, cb)
        assert seq.header.transform is not None
        assert seq.header.codebook_id == cb.content_id()
