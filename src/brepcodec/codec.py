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
the state it leads to.  `step`, `validity_mask`, `allowed_tokens`, `parse`
and the sampler all read that table.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .model import BrepModel, TransformRecord, connected_components
from .rq import Codebook, rq_decode, rq_encode_many
from .sampler import SamplingConfig, VhpRecord, extract_vhp

COORD_BINS = 128


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

    coord_bins: int = COORD_BINS
    pointer_max: int = 256
    rq_levels: int = 4
    rq_level_size: int = 257   # trained size + 1 slot for the zero centroid

    @property
    def pointer_base(self) -> int:
        return self.coord_bins

    @property
    def rq_base(self) -> int:
        return self.coord_bins + self.pointer_max

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
        if 0 <= tid < self.coord_bins:
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
        text = (f"coord={self.coord_bins};ptr={self.pointer_max};"
                f"levels={self.rq_levels};size={self.rq_level_size}")
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    @staticmethod
    def for_codebook(cb: Codebook, pointer_max: int = 256) -> "VocabLayout":
        return VocabLayout(COORD_BINS, pointer_max, cb.depth, cb.level_size)

    @cached_property
    def _transitions(self) -> dict:
        """GrammarState -> transition ranges, filled lazily by `transitions`."""
        return {}

    @cached_property
    def _allowed(self) -> dict:
        """GrammarState or span tuple -> allowed ids, filled by `allowed_tokens`."""
        return {}


@dataclass
class CodecConfig:
    sampling: SamplingConfig = field(default_factory=SamplingConfig)
    pointer_max: int = 256
    max_tokens: int = 3072


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
# Descriptor packing
# ---------------------------------------------------------------------------

def pack_descriptor(record: VhpRecord, cfg: SamplingConfig) -> np.ndarray:
    """Flatten a record: half-patch row-major, next samples, then label."""
    flat = np.concatenate([
        record.half_patch.samples.reshape(-1),
        record.next_samples.reshape(-1),
        [float(record.label)],
    ])
    if flat.shape[0] != cfg.descriptor_length:
        raise CodecError(f"descriptor length {flat.shape[0]} != "
                         f"configured {cfg.descriptor_length}")
    return flat


def unpack_descriptor(desc: np.ndarray, cfg: SamplingConfig):
    """Inverse of pack_descriptor -> (half_patch, next_samples, label)."""
    desc = np.asarray(desc, dtype=float).reshape(-1)
    if desc.shape[0] != cfg.descriptor_length:
        raise CodecError(f"descriptor length {desc.shape[0]} != "
                         f"configured {cfg.descriptor_length}")
    nc, ns, nn = cfg.n_curve, cfg.n_surface, cfg.n_next
    hp = desc[: nc * ns * 3].reshape(nc, ns, 3)
    nxt = desc[nc * ns * 3: nc * ns * 3 + nn * 3].reshape(nn, 3)
    label = 1 if desc[-1] >= 0.5 else 0
    return hp, nxt, label


def model_descriptors(model: BrepModel, cfg: SamplingConfig | None = None) -> np.ndarray:
    """All per-half-edge descriptors of a normalized model -> (2E, dim)."""
    cfg = cfg or SamplingConfig()
    records = extract_vhp(model, cfg)
    return np.stack([pack_descriptor(r, cfg) for r in records])


LABEL_EMPHASIS = 4.0
TOPOLOGY_EMPHASIS = 2.0


def descriptor_dim_weights(cfg: SamplingConfig | None = None,
                           label_emphasis: float = LABEL_EMPHASIS,
                           topology_emphasis: float = TOPOLOGY_EMPHASIS
                           ) -> np.ndarray:
    """Clustering emphasis for descriptor corpora.

    The binary label and the dimensions that carry topology through
    reconstruction (on-curve samples and successor samples) get extra
    weight so quantization noise lands preferentially in the interior
    surface samples, which no discrete decision depends on.
    """
    cfg = cfg or SamplingConfig()
    nc, ns, nn = cfg.n_curve, cfg.n_surface, cfg.n_next
    w = np.ones(cfg.descriptor_length)
    for row in range(nc):
        w[row * ns * 3: row * ns * 3 + 3] = topology_emphasis   # column 0
    w[nc * ns * 3: nc * ns * 3 + nn * 3] = topology_emphasis    # next samples
    w[-1] = label_emphasis
    return w


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
        hit = ((0, layout.coord_bins, nxt),)
    elif mode == MODE_ADJ:
        hit = ((layout.pointer_base, layout.pointer_base + count,
                GrammarState(MODE_RQ, 0, count)),
               (layout.sep, layout.sep + 1, GrammarState()),
               (layout.end, layout.end + 1, GrammarState(MODE_DONE)))
        if count < layout.pointer_max:       # room for one more vertex
            hit = ((0, layout.coord_bins, GrammarState(MODE_COORD, 1, count)),) + hit
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


def allowed_tokens(state: GrammarState, layout: VocabLayout) -> np.ndarray:
    """Ascending ids of the tokens step() accepts, cached on the layout."""
    cache = layout._allowed
    hit = cache.get(state)
    if hit is None:
        # states that differ only in where they lead share one array
        spans = tuple((lo, hi) for lo, hi, _ in transitions(state, layout))
        hit = cache.get(spans)
        if hit is None:
            hit = cache[spans] = np.flatnonzero(validity_mask(state, layout))
        cache[state] = hit
    return hit


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


def _component_records(model: BrepModel, comps, codes: np.ndarray):
    """Per-component vertex orders and edge groups with their RQ codes."""
    local = {}
    comp_of = {}
    for ci, comp in enumerate(comps):
        for li, v in enumerate(comp):
            local[v] = li
            comp_of[v] = ci
    groups = [dict() for _ in comps]    # later_local -> [(earlier_local, eid)]
    for eid, e in enumerate(model.edges):
        ci = comp_of[e.v0]
        a, b = local[e.v0], local[e.v1]
        earlier, later = min(a, b), max(a, b)
        groups[ci].setdefault(later, []).append((earlier, eid))
    for g in groups:
        for later in g:
            g[later].sort()
    return local, comp_of, groups


def tokenize(model: BrepModel, codebook: Codebook, cfg: CodecConfig | None = None,
             transform: TransformRecord | None = None) -> TokenSequence:
    """Encode a normalized, validated model as a token sequence."""
    cfg = cfg or CodecConfig()
    layout = VocabLayout.for_codebook(codebook, cfg.pointer_max)
    if model.num_vertices and (model.vertices.min() < 0.0 or model.vertices.max() >= 1.0):
        raise CodecError("model must be normalized into the unit box before tokenizing")

    flat_order, comps = canonical_order(model)
    for comp in comps:
        if len(comp) > cfg.pointer_max:
            raise CapacityError(
                f"component with {len(comp)} vertices exceeds the pointer "
                f"range of {cfg.pointer_max}")

    records = extract_vhp(model, cfg.sampling)
    descs = np.stack([pack_descriptor(r, cfg.sampling) for r in records]) \
        if records else np.zeros((0, cfg.sampling.descriptor_length))
    codes = rq_encode_many(descs, codebook) if len(records) else np.zeros((0, 0), int)

    local, _, groups = _component_records(model, comps, codes)
    qcoords = quantize_coord(model.vertices) if model.num_vertices else None

    def rq_tokens(he_id):
        return [layout.rq_token(lvl, codes[he_id, lvl])
                for lvl in range(layout.rq_levels)]

    tokens = [layout.start]
    for ci, comp in enumerate(comps):
        if ci:
            tokens.append(layout.sep)
        for li, v in enumerate(comp):
            tokens.extend(layout.coord_token(k) for k in qcoords[v])
            for earlier, eid in groups[ci].get(li, []):
                h_ij, h_ji = _edge_descriptor_ids(model, eid, comp[earlier])
                tokens.append(layout.pointer_token(earlier))
                tokens.extend(rq_tokens(h_ij))
                tokens.extend(rq_tokens(h_ji))
    tokens.append(layout.end)

    if len(tokens) > cfg.max_tokens:
        raise CapacityError(f"sequence of {len(tokens)} tokens exceeds the "
                            f"maximum of {cfg.max_tokens}")
    header = SequenceHeader(layout_hash=layout.layout_hash(),
                            codebook_id=codebook.content_id(),
                            transform=transform)
    return TokenSequence(tokens=tokens, header=header)


# ---------------------------------------------------------------------------
# Parse
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class ParsedEdge:
    i: int
    j: int
    codes_ij: tuple
    codes_ji: tuple
    desc_ij: np.ndarray | None = None
    desc_ji: np.ndarray | None = None


@dataclass(eq=False)
class ParsedComponent:
    coords_q: np.ndarray       # (V, 3) bin indices
    positions: np.ndarray      # (V, 3) dequantized centers
    edges: list


@dataclass(eq=False)
class VertexRecordSet:
    components: list
    header: SequenceHeader | None = None


def _finish_component(coords, edges, codebook, layout):
    coords_q = np.array(coords, dtype=int).reshape(-1, 3)
    positions = dequantize_coord(coords_q) if coords_q.size else coords_q.astype(float)
    parsed = []
    for i, j, cij, cji in edges:
        desc_ij = desc_ji = None
        if codebook is not None:
            desc_ij = rq_decode(np.array(cij), codebook)
            desc_ji = rq_decode(np.array(cji), codebook)
        parsed.append(ParsedEdge(i=i, j=j, codes_ij=tuple(cij), codes_ji=tuple(cji),
                                 desc_ij=desc_ij, desc_ji=desc_ji))
    return ParsedComponent(coords_q=coords_q, positions=positions, edges=parsed)


def parse(seq, codebook: Codebook | None = None, cfg: CodecConfig | None = None,
          layout: VocabLayout | None = None) -> VertexRecordSet:
    """Decode a token sequence into per-component vertex records.

    Grammar violations raise GrammarError with the token position and the
    expected token kinds.  Descriptors are decoded when a codebook is
    supplied, otherwise left as raw codes.
    """
    cfg = cfg or CodecConfig()
    header = seq.header if isinstance(seq, TokenSequence) else None
    tokens = list(seq.tokens) if isinstance(seq, TokenSequence) else list(seq)
    if layout is None:
        layout = (VocabLayout.for_codebook(codebook, cfg.pointer_max)
                  if codebook is not None else VocabLayout(pointer_max=cfg.pointer_max))
    if header is not None and header.layout_hash and \
            header.layout_hash != layout.layout_hash():
        raise CodecError("sequence header layout hash does not match the layout")

    if not tokens or tokens[0] != layout.start:
        raise GrammarError("sequence must begin with <start>", position=0,
                           reason="missing-start")
    if len(tokens) == 2 and tokens[1] == layout.end:
        return VertexRecordSet(components=[], header=header)

    state = initial_state()
    comps, coords, edges = [], [], []
    depth = layout.rq_levels
    for pos in range(1, len(tokens)):
        tok = tokens[pos]
        try:
            nxt = step(state, tok, layout)
        except GrammarError as err:
            err.position = pos
            raise
        if state.mode == MODE_RQ:
            codes.append((tok - layout.rq_base) % layout.rq_level_size)
            if nxt.mode == MODE_ADJ:
                edges.append((i, j, codes[:depth], codes[depth:]))
        elif nxt.mode == MODE_RQ:            # a pointer opens an edge group
            i, j, codes = tok - layout.pointer_base, state.count - 1, []
        elif tok < layout.coord_bins:
            coords.append(tok)
        else:                                # <sep> or <end> closes a component
            comps.append(_finish_component(coords, edges, codebook, layout))
            coords, edges = [], []
            if nxt.mode == MODE_DONE:
                if pos != len(tokens) - 1:
                    raise GrammarError("tokens after <end>", position=pos + 1,
                                       reason="trailing-token")
                return VertexRecordSet(components=comps, header=header)
        state = nxt
    raise GrammarError("sequence ended without <end>", position=len(tokens),
                       reason="incomplete-vertex" if state.mode == MODE_RQ
                       else "incomplete-sequence")


def sequence_token_count(n_vertices: int, n_edges: int, rq_levels: int = 4,
                         n_components: int = 1) -> int:
    """Exact length of the token sequence of a model with these counts."""
    return 2 + 3 * n_vertices + (1 + 2 * rq_levels) * n_edges + (n_components - 1)
