import hashlib
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from brepcodec.codec import (
    COORD_BINS,
    MAX_TOKENS,
    MODE_DONE,
    MODE_RQ,
    CapacityError,
    CodecError,
    DuplicateVertexError,
    GrammarError,
    GrammarState,
    VocabLayout,
    canonical_order,
    dequantize_coord,
    descriptor_dim_weights,
    initial_state,
    model_descriptors,
    parse,
    quantize_coord,
    sequence_token_count,
    step,
    tokenize,
    transitions,
    validity_mask,
)
from brepcodec.geometry import LineSegment
from brepcodec.model import BrepModel, Edge, normalize
from brepcodec.pipeline import lossless_codebook
from brepcodec.primitives import box, merge_models, ngon_prism, through_hole_box
from brepcodec.rq import Codebook, rq_decode
from brepcodec.sampler import SamplingConfig, _pack, unpack_descriptor

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

    def test_hash_is_pinned(self):
        # token and n-gram files carry this hash and are refused on a mismatch
        assert VocabLayout().layout_hash() == "1ad6c2b307d5b6a2"
        assert VocabLayout(rq_levels=4, rq_level_size=65).layout_hash() == "21aa41fc8163694a"

    def test_codebooks_of_one_shape_share_one_layout(self):
        # the grammar table is cached on the layout, so the sampler and
        # `parse` must meet the same object to build it only once
        a = Codebook(np.zeros((2, 5, 3)), np.zeros(3), np.ones(3))
        b = Codebook(np.ones((2, 5, 3)), np.ones(3), np.ones(3))
        c = Codebook(np.zeros((3, 5, 3)), np.zeros(3), np.ones(3))
        assert VocabLayout.for_codebook(a) is VocabLayout.for_codebook(b)
        assert VocabLayout.for_codebook(c) is not VocabLayout.for_codebook(a)
        assert VocabLayout.for_codebook(a) == VocabLayout(rq_levels=2, rq_level_size=5)


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
        big, _ = normalize(ngon_prism(n=129))     # 258 vertices in one component
        with pytest.raises(CapacityError):
            tokenize(big, cb)

    def test_token_limit_capacity_error(self, cube_normed):
        cb = lossless_codebook(cube_normed)
        boxes, _ = normalize(merge_models([box(at=(2 * i, 0, 0)) for i in range(24)]))
        assert sequence_token_count(8 * 24, 12 * 24, 4, 24) == 3193 > MAX_TOKENS
        with pytest.raises(CapacityError, match="3193 tokens"):
            tokenize(boxes, cb)


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
        assert mask[:COORD_BINS].all()
        assert not mask[COORD_BINS:].any()

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
        assert mask[:COORD_BINS].all()
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


class TestDescriptorLayout:
    @pytest.mark.parametrize("cfg", [SamplingConfig(), SamplingConfig(n_next=2),
                                     SamplingConfig(n_surface=3)],
                             ids=["default", "n_next=2", "n_surface=3"])
    def test_shapes(self, cfg):
        m, _ = normalize(through_hole_box())
        descs = model_descriptors(m, cfg)
        assert descs.shape[1] == cfg.descriptor_length
        assert descriptor_dim_weights(cfg).shape == (cfg.descriptor_length,)
        hps, nxts, labels = zip(*(unpack_descriptor(d, cfg) for d in descs))
        for d, hp, nxt, label in zip(descs, hps, nxts, labels):
            assert np.array_equal(_pack(hp, nxt, label), d)
        # leading dimensions are batch dimensions
        assert np.array_equal(_pack(np.array(hps), np.array(nxts), np.array(labels)), descs)
        for part, rows in zip(unpack_descriptor(descs, cfg), (hps, nxts, labels)):
            assert np.array_equal(part, np.array(rows))


class TestHeaders:
    def test_layout_hash_checked(self, cube_normed):
        cb = lossless_codebook(cube_normed)
        seq = tokenize(cube_normed, cb)
        other = VocabLayout(pointer_max=64)
        with pytest.raises(Exception):
            parse(seq, layout=other)

    def test_codebook_width_checked(self, cube_normed):
        cb = lossless_codebook(cube_normed)
        seq = tokenize(cube_normed, cb)
        narrow = Codebook(cb.levels[..., :10], cb.mean[:10], cb.scale[:10])
        with pytest.raises(CodecError, match="codebook dimension 10"):
            parse(seq, narrow)

    def test_transform_rides_along(self, unit_cube):
        from brepcodec.pipeline import encode_model

        cb = lossless_codebook(normalize(unit_cube)[0])
        seq = encode_model(unit_cube, cb)
        assert seq.header.transform is not None
        assert seq.header.codebook_id == cb.content_id()


class TestEncodeGolden:
    def test_encodes_are_pinned(self):
        # one model per (acceptance family, component count 1..5): every bit of
        # its normalized vertices, descriptors and tokens under a codebook
        # trained on them; any change to the encode path shows here
        from brepcodec.rq import train_codebook
        from brepcodec.synth import FAMILIES, CorpusSpec, synth_corpus

        normed = [normalize(m) for k in range(1, 6)
                  for _, m in synth_corpus(CorpusSpec(counts={f: 1 for f in FAMILIES},
                                                      components=(k, k), seed=k))]
        descs = [model_descriptors(m, SamplingConfig()) for m, _ in normed]
        cb = train_codebook(np.concatenate(descs), 4, 32, seed=0,
                            dim_weights=descriptor_dim_weights(SamplingConfig()))
        h = hashlib.sha256(cb.content_id().encode())
        for (m, transform), d in zip(normed, descs):
            seq = tokenize(m, cb, transform=transform)
            h.update(m.vertices.tobytes())
            h.update(np.array(transform.offset + (transform.scale,)).tobytes())
            h.update(d.tobytes())
            h.update(np.asarray(seq.tokens, dtype=np.int64).tobytes())
        assert h.hexdigest() == (
            "cb004151626a7c796c57d7a9ffdc97963f68c169405153153d3461cdde89df3e")


# ---------------------------------------------------------------------------
# Parse outcomes on token corpora
# ---------------------------------------------------------------------------

def parse_outcome(tokens, cb, layout):
    """``parse``'s records, or its exception as (type, message, position,
    reason, expected, found)."""
    try:
        return parse(tokens, cb, layout=layout)
    except Exception as exc:
        return (type(exc), str(exc), *(getattr(exc, k, None)
                                       for k in ("position", "reason", "expected", "found")))


def same_bits(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def outcome_kind(out) -> str:
    if not isinstance(out, tuple):
        return "parsed"
    return out[3] if out[0] is GrammarError else out[0].__name__


def outcome_digest(outcomes) -> str:
    """sha256 of ``parse_outcome``s: each component's ``repr(edges)`` (so the
    type of every id shows), positions and descriptors, or the refusal."""
    h = hashlib.sha256()
    for out in outcomes:
        h.update(b"|")
        if isinstance(out, tuple):
            h.update(repr((out[0].__name__,) + out[1:]).encode())
            continue
        for c in out.components:
            h.update(repr(c.edges).encode())
            h.update(c.positions.tobytes())
            h.update(c.descriptors.tobytes())
    return h.hexdigest()


def mutations(tokens, layout, rng, n):
    """``n`` random edits of ``tokens``: substitutions (also off-vocabulary
    and negative ids), deletions, insertions, truncations, a second <start>,
    tokens after <end> and misplaced delimiters."""
    v = layout.vocab_size
    for _ in range(n):
        t = list(tokens)
        at = int(rng.integers(1, len(t)))
        kind = int(rng.integers(9))
        if kind == 0:
            t[at] = int(rng.integers(v))
        elif kind == 1:
            del t[at]
        elif kind == 2:
            t.insert(at, int(rng.integers(v)))
        elif kind == 3:
            t = t[:at]
        elif kind == 4:
            t[at] = int(rng.choice([-1, -7, v, v + 5]))
        elif kind == 5:
            t.insert(at, layout.start)
        elif kind == 6:
            t += [int(rng.integers(v)) for _ in range(int(rng.integers(1, 3)))]
        elif kind == 7:                        # a delimiter, also one opening a component
            t.insert(int(rng.choice([1, at])), int(rng.choice([layout.sep, layout.end])))
        else:                                  # a token of a neighbouring kind
            t[at] = t[at] + int(rng.choice([-1, 1, layout.rq_level_size]))
        yield t


def relayout(tokens, src: VocabLayout, dst: VocabLayout) -> list:
    """``tokens`` of ``src`` spelled in ``dst``, kind and offsets kept."""
    out = []
    for tok in tokens:
        kind = src.classify(tok)
        out.append({"coord": lambda: tok, "pointer": lambda: dst.pointer_token(kind[1]),
                    "rq": lambda: dst.rq_token(kind[1], kind[2]), "start": lambda: dst.start,
                    "sep": lambda: dst.sep, "end": lambda: dst.end}[kind[0]]())
    return out


def grammar_walk(layout, rng, length: int) -> list:
    """A random grammatical sequence: legal tokens drawn from `transitions`,
    closed with <end> once ``length`` tokens are out and <end> is legal."""
    tokens, state = [layout.start], initial_state()
    while state.mode != MODE_DONE:
        legal = transitions(state, layout)
        ends = [r for r in legal if r[0] == layout.end]
        lo, hi, state = ends[0] if ends and len(tokens) >= length else \
            legal[int(rng.integers(len(legal)))]
        tokens.append(int(rng.integers(lo, hi)))
    return tokens


@pytest.fixture(scope="module")
def parse_corpus():
    """Tokens of a stratified corpus (1-3 components) under a 4 x 32 codebook,
    and 30 order-2 n-gram samples of them, some of them truncated."""
    from brepcodec.lm import SamplerConfig, fit_ngram, sample_sequence
    from brepcodec.rq import train_codebook
    from brepcodec.synth import FAMILIES, CorpusSpec, synth_corpus

    spec = CorpusSpec(counts={f: 2 for f in FAMILIES}, components=(1, 3), seed=5)
    normed = [normalize(m)[0] for _, m in synth_corpus(spec)]
    cb = train_codebook(np.concatenate([model_descriptors(m, SamplingConfig()) for m in normed]),
                        4, 32, seed=0, dim_weights=descriptor_dim_weights(SamplingConfig()))
    seqs = [tokenize(m, cb).tokens for m in normed]
    layout = VocabLayout.for_codebook(cb)
    lm = fit_ngram(seqs, order=2, vocab_size=layout.vocab_size)
    samples = [sample_sequence(lm, layout, SamplerConfig(seed=s, temperature=0.7)).tokens
               for s in range(30)]
    return cb, layout, seqs + samples


class TestArrayParse:
    # parse's outcome on every sequence of three corpora, pinned: records bit
    # for bit, or the refusal's type, message, position, reason, expected and
    # found.  Each corpus also asserts which grammar outcomes it reaches.

    def test_corpus_outcomes_are_pinned(self, parse_corpus):
        cb, layout, seqs = parse_corpus
        outcomes = [parse_outcome(t, cb, layout) for tokens in seqs
                    for t in (tokens, np.array(tokens, dtype=np.int32))]
        for out in outcomes:
            if isinstance(out, tuple):         # a truncated sample
                assert out[3] in ("incomplete-sequence", "incomplete-vertex")
            else:                              # ids stay Python ints for array input
                assert all(type(k) is int for c in out.components for e in c.edges for k in e)
        assert outcome_digest(outcomes) == (
            "cd86b6e115c6e7c826228d10aacc24d1771966890a22984336a55a5d4b13947f")

    def test_mutated_outcomes_are_pinned(self, parse_corpus):
        cb, layout, seqs = parse_corpus
        rng = np.random.default_rng(3)
        walks = [grammar_walk(layout, rng, int(rng.integers(4, 200))) for _ in range(20)]
        outcomes = [parse_outcome(t, cb, layout) for tokens in seqs + walks
                    for t in mutations(tokens, layout, rng, 40)]
        # every outcome the grammar has, and sequences that still parse
        assert {"parsed", "CodecError", "misplaced-start", "trailing-token",
                "forward-reference", "expected-rq", "expected-coordinate",
                "expected-adjacency", "delimiter-position", "empty-component",
                "incomplete-sequence", "incomplete-vertex"} <= set(map(outcome_kind, outcomes))
        assert outcome_digest(outcomes) == (
            "59b6cdc697b80025b9d7aedb0b8184567fd048f1d8e7aafc37923abb44d216b3")

    def test_capacity_outcomes_are_pinned(self, parse_corpus):
        cb, layout, seqs = parse_corpus
        small = VocabLayout(pointer_max=2, rq_levels=layout.rq_levels,
                            rq_level_size=layout.rq_level_size)
        rng = np.random.default_rng(4)
        walks = [grammar_walk(small, rng, int(rng.integers(4, 60))) for _ in range(30)]
        outcomes = [parse_outcome(m, cb, small)
                    for t in [relayout(tokens, layout, small) for tokens in seqs] + walks
                    for m in [t, *mutations(t, small, rng, 5)]]
        reasons = Counter(map(outcome_kind, outcomes))
        assert reasons["component-capacity"] and reasons["parsed"]
        assert outcome_digest(outcomes) == (
            "f799fa9554d905270cfac91ffc54d5a523dacd292ec48069617e05a92b7518d5")

    def test_one_decode_call_equals_one_per_component(self, parse_corpus):
        cb, layout, seqs = parse_corpus
        rng = np.random.default_rng(5)
        codes = rng.integers(cb.level_size, size=(60, cb.depth))
        parts = np.split(codes, [0, 8, 8, 30, 59])
        assert same_bits(np.concatenate([rq_decode(p, cb) for p in parts]), rq_decode(codes, cb))
        for tokens in seqs[:10]:
            rs = parse(tokens, cb, layout=layout)
            rq = [t for t in tokens if layout.rq_base <= t < layout.start]
            flat = rq_decode((np.array(rq) - layout.rq_base).reshape(-1, cb.depth)
                             % layout.rq_level_size, cb)
            assert same_bits(np.concatenate([c.descriptors for c in rs.components]), flat)
