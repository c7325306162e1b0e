"""Token-sequence codec for B-rep models.

Sequence layout, one connected component at a time in canonical order with
``<sep>`` between components::

    <start>
      x y z                                  # vertex 0 of the component
      x y z  P(i) q.. q.. | P(i') q.. q..    # vertex 1: coords, then one
      ...                                    # group per edge to an
    <end>                                    # earlier-or-equal vertex

Each undirected edge appears exactly once, at its later endpoint, as a
pointer token naming the earlier endpoint followed by the residual
quantizer codes of both directed half-edge descriptors (earlier-to-later
direction first).  Self-loops point at the vertex's own index and order
the curve-forward half-edge first.

The grammar is one transition table per `VocabLayout`: `transitions` maps
a `GrammarState` to the ascending token-id ranges legal there, each with
the state it leads to.  `step`, `validity_mask`, the sampler and `parse`
read that table, and `_rejection` explains why a token is refused.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import NamedTuple

import numpy as np

from .model import BrepModel, TransformRecord, connected_components
from .rq import Codebook, rq_decode, rq_encode_many
from .sampler import SamplingConfig, _pack, extract_vhp

COORD_BINS = 128
# `tokenize` refuses a longer sequence.  The sampler stops at MAX_TOKENS tokens and
# force-closes with <end> where legal, so a truncated sample can hold one more.
MAX_TOKENS = 3072


class CodecError(ValueError):
    pass


class CapacityError(CodecError):
    pass


class DuplicateVertexError(CodecError):
    pass


class GrammarError(CodecError):
    def __init__(self, message, position=None, expected=None, found=None, reason=None):
        self.position = position
        self.expected = expected
        self.found = found
        self.reason = reason
        at = "" if position is None else f" at position {position}"
        super().__init__(f"{message}{at}")


# ---------------------------------------------------------------------------
# Vocabulary layout
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VocabLayout:
    """Disjoint token-id ranges; id <-> (kind, offset) is a bijection."""

    pointer_max: int = 256
    rq_levels: int = 4
    rq_level_size: int = 257   # trained size + 1 slot for the zero centroid

    @property
    def pointer_base(self) -> int:
        return COORD_BINS

    @property
    def rq_base(self) -> int:
        return COORD_BINS + self.pointer_max

    @property
    def start(self) -> int:
        return self.rq_base + self.rq_levels * self.rq_level_size

    @property
    def sep(self) -> int:
        return self.start + 1

    @property
    def end(self) -> int:
        return self.start + 2

    @property
    def vocab_size(self) -> int:
        return self.start + 3

    def coord_token(self, k) -> int:
        return int(k)

    def pointer_token(self, i) -> int:
        return self.pointer_base + int(i)

    def rq_token(self, level: int, idx) -> int:
        return self.rq_base + level * self.rq_level_size + int(idx)

    def classify(self, tid: int):
        """Token id -> (kind, *offsets).  Raises CodecError off-vocabulary."""
        if 0 <= tid < COORD_BINS:
            return ("coord", tid)
        if self.pointer_base <= tid < self.rq_base:
            return ("pointer", tid - self.pointer_base)
        if self.rq_base <= tid < self.start:
            off = tid - self.rq_base
            return ("rq", off // self.rq_level_size, off % self.rq_level_size)
        if tid == self.start:
            return ("start",)
        if tid == self.sep:
            return ("sep",)
        if tid == self.end:
            return ("end",)
        raise CodecError(f"token id {tid} outside the vocabulary")

    def layout_hash(self) -> str:
        text = (f"coord={COORD_BINS};ptr={self.pointer_max};"
                f"levels={self.rq_levels};size={self.rq_level_size}")
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    @staticmethod
    def for_codebook(cb: Codebook) -> "VocabLayout":
        """The shared layout of ``cb``'s quantizer shape."""
        return _shared_layout(cb.depth, cb.level_size)

    @cached_property
    def _transitions(self) -> dict:
        """GrammarState -> transition ranges, filled lazily by `transitions`."""
        return {}


@cache
def _shared_layout(rq_levels: int, rq_level_size: int) -> VocabLayout:
    """One layout per quantizer shape, so its grammar table is built once."""
    return VocabLayout(rq_levels=rq_levels, rq_level_size=rq_level_size)


@dataclass
class CodecConfig:
    sampling: SamplingConfig = field(default_factory=SamplingConfig)


@dataclass
class SequenceHeader:
    layout_hash: str
    codebook_id: str = ""
    transform: TransformRecord | None = None


@dataclass(eq=False)
class TokenSequence:
    tokens: list
    header: SequenceHeader


# ---------------------------------------------------------------------------
# Coordinate quantization and canonical ordering
# ---------------------------------------------------------------------------

def quantize_coord(x):
    """x in [0, 1) -> 7-bit bin index."""
    a = np.asarray(x, dtype=float)
    if np.any(a < 0.0) or np.any(a >= 1.0):
        raise CodecError("coordinate outside [0, 1)")
    return np.minimum((a * COORD_BINS).astype(int), COORD_BINS - 1)


def dequantize_coord(k):
    """Bin index -> bin-center coordinate."""
    a = np.asarray(k, dtype=float)
    if np.any(a < 0) or np.any(a >= COORD_BINS):
        raise CodecError(f"bin index outside [0, {COORD_BINS})")
    return (a + 0.5) / COORD_BINS


def _sort_keys(vertices: np.ndarray) -> np.ndarray:
    q = np.minimum(np.maximum((vertices * COORD_BINS), 0.0).astype(int),
                   COORD_BINS - 1)
    # (qz, qy, qx, z, y, x) ascending
    return np.concatenate([q[:, ::-1], vertices[:, ::-1]], axis=1)


def canonical_order(model: BrepModel):
    """Canonical vertex and component ordering.

    Vertices sort by ascending quantized (z, y, x), ties broken by full
    precision then id; components sort by their minimum member key.
    Returns (flat vertex-id order, list of per-component id lists).
    """
    verts = model.vertices
    seen = {}
    for i, p in enumerate(verts):
        key = (float(p[0]), float(p[1]), float(p[2]))
        if key in seen:
            raise DuplicateVertexError(
                f"vertices {seen[key]} and {i} share position {key}")
        seen[key] = i

    keys = _sort_keys(verts)
    comps = connected_components(model)

    def vkey(v):
        return tuple(keys[v]) + (v,)

    ordered_comps = []
    for comp in comps:
        members = sorted(comp, key=vkey)
        ordered_comps.append(members)
    ordered_comps.sort(key=lambda ms: vkey(ms[0]))
    flat = [v for comp in ordered_comps for v in comp]
    return flat, ordered_comps


# ---------------------------------------------------------------------------
# Descriptors
# ---------------------------------------------------------------------------

def model_descriptors(model: BrepModel, cfg: SamplingConfig | None = None) -> np.ndarray:
    """All per-half-edge descriptors of a normalized model -> (2E, dim)."""
    return extract_vhp(model, cfg or SamplingConfig())


LABEL_EMPHASIS = 4.0
TOPOLOGY_EMPHASIS = 2.0


def descriptor_dim_weights(cfg: SamplingConfig | None = None) -> np.ndarray:
    """Clustering emphasis for descriptor corpora.

    The binary label and the dimensions that carry topology through
    reconstruction (on-curve samples and successor samples) get extra
    weight so quantization noise lands preferentially in the interior
    surface samples, which no discrete decision depends on.
    """
    cfg = cfg or SamplingConfig()
    half_patch = np.ones((cfg.n_curve, cfg.n_surface, 3))
    half_patch[:, 0] = TOPOLOGY_EMPHASIS                         # column 0
    return _pack(half_patch, np.full((cfg.n_next, 3), TOPOLOGY_EMPHASIS), LABEL_EMPHASIS)


# ---------------------------------------------------------------------------
# Grammar
# ---------------------------------------------------------------------------

MODE_COORD, MODE_ADJ, MODE_RQ, MODE_DONE = range(4)


class GrammarState(NamedTuple):
    """Parser position within the grammar.

    MODE_COORD: expecting coordinate ``pos`` (0..2) of the current vertex;
    MODE_ADJ:   after a complete vertex, expecting a pointer, a new
                vertex's first coordinate, or a delimiter;
    MODE_RQ:    inside an edge group, expecting code ``pos`` of 2 * D;
    MODE_DONE:  after <end>.
    ``count`` counts complete vertices in the current component.
    """

    mode: int = MODE_COORD
    pos: int = 0
    count: int = 0


def initial_state() -> GrammarState:
    """State immediately after <start>."""
    return GrammarState()


def transitions(state: GrammarState, layout: VocabLayout) -> tuple:
    """Ascending ``(lo, hi, next_state)`` token-id ranges legal in ``state``.

    This is the only definition of token legality; it is built once per
    state and cached on the layout.
    """
    hit = layout._transitions.get(state)
    if hit is not None:
        return hit
    mode, pos, count = state
    if mode == MODE_COORD:
        nxt = (GrammarState(MODE_ADJ, 0, count + 1) if pos == 2
               else GrammarState(MODE_COORD, pos + 1, count))
        hit = ((0, COORD_BINS, nxt),)
    elif mode == MODE_ADJ:
        hit = ((layout.pointer_base, layout.pointer_base + count,
                GrammarState(MODE_RQ, 0, count)),
               (layout.sep, layout.sep + 1, GrammarState()),
               (layout.end, layout.end + 1, GrammarState(MODE_DONE)))
        if count < layout.pointer_max:       # room for one more vertex
            hit = ((0, COORD_BINS, GrammarState(MODE_COORD, 1, count)),) + hit
    elif mode == MODE_RQ:
        lo = layout.rq_base + (pos % layout.rq_levels) * layout.rq_level_size
        nxt = (GrammarState(MODE_ADJ, 0, count) if pos + 1 == 2 * layout.rq_levels
               else GrammarState(MODE_RQ, pos + 1, count))
        hit = ((lo, lo + layout.rq_level_size, nxt),)
    else:                                    # nothing follows <end>
        hit = ()
    layout._transitions[state] = hit
    return hit


def step(state: GrammarState, token: int, layout: VocabLayout) -> GrammarState:
    """Advance the grammar by one token; raises GrammarError when illegal."""
    for lo, hi, nxt in transitions(state, layout):
        if token < hi:
            if token >= lo:
                return nxt
            break
    raise _rejection(state, token, layout)


def _rejection(state: GrammarState, token: int, layout: VocabLayout) -> GrammarError:
    """Why ``step`` refused ``token``; off-vocabulary ids raise CodecError."""
    kind = layout.classify(token)
    mode, pos, count = state
    if mode == MODE_DONE:
        return GrammarError("token after <end>", found=kind[0], reason="trailing-token")
    if kind[0] == "start":
        return GrammarError("<start> can only open a sequence",
                            found="start", reason="misplaced-start")
    delimiter = kind[0] in ("sep", "end")
    if mode == MODE_COORD:
        reason = "expected-coordinate"
        if delimiter:
            reason = "delimiter-position" if pos or count else "empty-component"
        return GrammarError(f"expected coordinate, got {kind[0]}",
                            expected=["coordinate"], found=kind[0], reason=reason)
    if mode == MODE_ADJ:
        if kind[0] == "coord":
            return GrammarError(
                f"component exceeds {layout.pointer_max} vertices",
                expected=["pointer", "sep", "end"], found="coord",
                reason="component-capacity")
        if kind[0] == "pointer":
            return GrammarError(
                f"pointer {kind[1]} references a vertex not yet emitted "
                f"(component has {count})",
                expected=[f"pointer < {count}"], found="pointer",
                reason="forward-reference")
        return GrammarError(f"expected pointer, coordinate, or delimiter, got {kind[0]}",
                            expected=["coord", "pointer", "sep", "end"],
                            found=kind[0], reason="expected-adjacency")
    level = pos % layout.rq_levels
    return GrammarError(
        f"expected quantizer code for level {level}, got {kind}",
        expected=[f"rq level {level}"], found=kind[0],
        reason="delimiter-position" if delimiter else "expected-rq")


def validity_mask(state: GrammarState, layout: VocabLayout) -> np.ndarray:
    """Boolean mask over the vocabulary: exactly the tokens step() accepts."""
    mask = np.zeros(layout.vocab_size, dtype=bool)
    for lo, hi, _ in transitions(state, layout):
        mask[lo:hi] = True
    return mask


# ---------------------------------------------------------------------------
# Tokenize
# ---------------------------------------------------------------------------

def _edge_descriptor_ids(model: BrepModel, eid: int, earlier_global: int):
    """Half-edge ids (earlier->later, later->earlier) for one edge."""
    e = model.edges[eid]
    hf, hr = e.halfedges
    if e.v0 == e.v1:
        return hf, hr          # self-loop: curve-forward first
    return (hf, hr) if e.v0 == earlier_global else (hr, hf)


def component_edges(model: BrepModel, comps):
    """Per-component edge groups: later local index -> [(earlier local, eid)].

    ``comps`` are the per-component vertex-id lists of `canonical_order`.
    """
    local = {}
    comp_of = {}
    for ci, comp in enumerate(comps):
        for li, v in enumerate(comp):
            local[v] = li
            comp_of[v] = ci
    groups = [dict() for _ in comps]
    for eid, e in enumerate(model.edges):
        ci = comp_of[e.v0]
        a, b = local[e.v0], local[e.v1]
        earlier, later = min(a, b), max(a, b)
        groups[ci].setdefault(later, []).append((earlier, eid))
    for g in groups:
        for later in g:
            g[later].sort()
    return groups


def tokenize(model: BrepModel, codebook: Codebook, cfg: CodecConfig | None = None,
             transform: TransformRecord | None = None) -> TokenSequence:
    """Encode a normalized, validated model as a token sequence."""
    cfg = cfg or CodecConfig()
    layout = VocabLayout.for_codebook(codebook)
    if model.num_vertices and (model.vertices.min() < 0.0 or model.vertices.max() >= 1.0):
        raise CodecError("model must be normalized into the unit box before tokenizing")

    descs = extract_vhp(model, cfg.sampling)   # its FaceCharts refuse an invalid model first
    flat_order, comps = canonical_order(model)
    for comp in comps:
        if len(comp) > layout.pointer_max:
            raise CapacityError(
                f"component with {len(comp)} vertices exceeds the pointer "
                f"range of {layout.pointer_max}")

    codes = rq_encode_many(descs, codebook)

    groups = component_edges(model, comps)
    qcoords = quantize_coord(model.vertices)

    # row h: the quantizer tokens of half-edge h, as `VocabLayout.rq_token` numbers them
    rq_tokens = (layout.rq_base + np.arange(layout.rq_levels) * layout.rq_level_size
                 + codes).tolist()

    tokens = [layout.start]
    for ci, comp in enumerate(comps):
        if ci:
            tokens.append(layout.sep)
        for li, v in enumerate(comp):
            tokens.extend(layout.coord_token(k) for k in qcoords[v])
            for earlier, eid in groups[ci].get(li, []):
                h_ij, h_ji = _edge_descriptor_ids(model, eid, comp[earlier])
                tokens.append(layout.pointer_token(earlier))
                tokens.extend(rq_tokens[h_ij])
                tokens.extend(rq_tokens[h_ji])
    tokens.append(layout.end)

    if len(tokens) > MAX_TOKENS:
        raise CapacityError(f"sequence of {len(tokens)} tokens exceeds the "
                            f"maximum of {MAX_TOKENS}")
    header = SequenceHeader(layout_hash=layout.layout_hash(),
                            codebook_id=codebook.content_id(),
                            transform=transform)
    return TokenSequence(tokens=tokens, header=header)


# ---------------------------------------------------------------------------
# Parse
# ---------------------------------------------------------------------------

class ParsedEdge(NamedTuple):
    i: int                     # local indices: earlier and later endpoint
    j: int


@dataclass(eq=False)
class ParsedComponent:
    positions: np.ndarray      # (V, 3) dequantized centers
    edges: list                # `ParsedEdge`s in sequence order
    # (2E, dim), None without a codebook: rows 2k, 2k + 1 are edge k's ij, ji
    descriptors: np.ndarray | None = None


@dataclass(eq=False)
class VertexRecordSet:
    components: list
    header: SequenceHeader | None = None


def parse(seq, codebook: Codebook | None = None, cfg: CodecConfig | None = None,
          layout: VocabLayout | None = None) -> VertexRecordSet:
    """Decode a token sequence into per-component vertex records.

    Grammar violations raise GrammarError with the token position and the
    expected token kinds.  With a codebook, each component's descriptors
    are decoded into one matrix; the codebook's width must be the
    descriptor length of ``cfg.sampling`` (CodecError otherwise).  Without
    one they stay None.

    The sequence is checked in one walk of the grammar table (`_walk`),
    which collects coordinates, pointers and codes as it goes.  An ndarray
    of token ids is read as Python ints, so the records hold ints.
    """
    cfg = cfg or CodecConfig()
    if codebook is not None and codebook.dim != cfg.sampling.descriptor_length:
        raise CodecError(f"codebook dimension {codebook.dim} != descriptor length "
                         f"{cfg.sampling.descriptor_length}")
    header = seq.header if isinstance(seq, TokenSequence) else None
    tokens = seq.tokens if isinstance(seq, TokenSequence) else seq
    tokens = tokens.tolist() if isinstance(tokens, np.ndarray) else list(tokens)
    if layout is None:
        layout = (VocabLayout.for_codebook(codebook) if codebook is not None else
                  _shared_layout(VocabLayout.rq_levels, VocabLayout.rq_level_size))
    if header is not None and header.layout_hash and \
            header.layout_hash != layout.layout_hash():
        raise CodecError("sequence header layout hash does not match the layout")

    if not tokens or tokens[0] != layout.start:
        raise GrammarError("sequence must begin with <start>", position=0,
                           reason="missing-start")
    if len(tokens) == 2 and tokens[1] == layout.end:
        return VertexRecordSet(components=[], header=header)
    return VertexRecordSet(components=_walk(tokens, codebook, layout), header=header)


def _walk(tokens, codebook, layout):
    """The components of ``tokens`` (<start> first), walking the grammar
    table once; a refused token raises `_rejection`'s error at its position.
    All components' codes decode in one `rq_decode` call."""
    table, rq_base, start = layout._transitions, layout.rq_base, layout.start
    state = initial_state()
    coords, edges, codes, ends = [], [], [], []
    for pos in range(1, len(tokens)):
        tok = tokens[pos]
        for lo, hi, nxt in table.get(state) or transitions(state, layout):
            if lo <= tok < hi:
                break
        else:
            err = _rejection(state, tok, layout)
            err.position = pos
            raise err
        if tok < COORD_BINS:
            coords.append(tok)
        elif tok < rq_base:                  # a pointer opens an edge group
            edges.append(ParsedEdge(tok - COORD_BINS, state.count - 1))
        elif tok < start:
            codes.append(tok)
        else:                                # <sep> or <end> closes a component
            ends.append((len(coords) // 3, len(edges)))
            if nxt.mode == MODE_DONE:
                if pos != len(tokens) - 1:
                    raise GrammarError("tokens after <end>", position=pos + 1,
                                       reason="trailing-token")
                break
        state = nxt
    else:
        raise GrammarError("sequence ended without <end>", position=len(tokens),
                           reason="incomplete-vertex" if state.mode == MODE_RQ
                           else "incomplete-sequence")

    vertex_ends, edge_ends = zip(*ends)
    positions = np.split(dequantize_coord(np.array(coords).reshape(-1, 3)), vertex_ends[:-1])
    descriptors = [None] * len(ends)
    if codebook is not None:
        codes = (np.array(codes, dtype=int) - rq_base) % layout.rq_level_size
        descriptors = np.split(rq_decode(codes.reshape(-1, layout.rq_levels), codebook),
                               2 * np.array(edge_ends[:-1], dtype=int))
    return [ParsedComponent(positions=p, edges=edges[a:b], descriptors=d)
            for p, a, b, d in zip(positions, (0,) + edge_ends, edge_ends, descriptors)]


def sequence_token_count(n_vertices: int, n_edges: int, rq_levels: int = 4,
                         n_components: int = 1) -> int:
    """Exact length of the token sequence of a model with these counts."""
    return 2 + 3 * n_vertices + (1 + 2 * rq_levels) * n_edges + (n_components - 1)
