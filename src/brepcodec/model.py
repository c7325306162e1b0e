"""Half-edge boundary-representation model and structural operations.

A :class:`BrepModel` is a set of index-addressed tables: vertices, edges
(each carrying a parametric curve and exactly two half-edges), half-edges,
loops and faces; `compute_shells` derives the shell partition from them.
Models are treated as immutable once built; every operation here returns
fresh values and never mutates its input, so models are safe to share
across threads.

Conventions enforced by :class:`ModelBuilder` and assumed throughout:

* each edge is referenced by exactly one forward and one reverse half-edge
  (the forward one runs along the curve's own parameter direction);
* loops list their half-edge cycle in traversal order, with consecutive
  half-edges sharing a vertex;
* outer loops wind counter-clockwise in their face's UV domain and inner
  loops clockwise, so the face interior always lies to the left of a
  half-edge's pcurve direction.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import GeometryError, curve_bboxes, curve_points, similarity


class ModelError(ValueError):
    """Structurally invalid model construction."""


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Edge:
    curve: object        # geometry curve, parameter [0, 1]
    v0: int              # vertex at curve parameter 0
    v1: int              # vertex at curve parameter 1
    halfedges: tuple     # (forward halfedge id, reverse halfedge id)


@dataclass(frozen=True, eq=False)
class HalfEdge:
    origin: int
    twin: int
    edge: int
    loop: int
    forward: bool        # True if directed along the edge curve parameter
    pcurve: object       # 2D curve in the owning face's domain, or None


@dataclass(frozen=True, eq=False)
class Loop:
    halfedges: tuple     # ordered cycle of halfedge ids
    kind: str            # 'outer' | 'inner'
    face: int


@dataclass(frozen=True, eq=False)
class Face:
    surface: object
    outer: int
    inners: tuple = ()


@dataclass(eq=False)
class BrepModel:
    vertices: np.ndarray           # (V, 3)
    edges: list
    halfedges: list
    loops: list
    faces: list

    def destination(self, h: int) -> int:
        return self.halfedges[self.halfedges[h].twin].origin

    def next_in_loop(self, h: int) -> int:
        cycle = self.loops[self.halfedges[h].loop].halfedges
        i = cycle.index(h)
        return cycle[(i + 1) % len(cycle)]

    def face_halfedges(self, f: int):
        """All halfedge ids bounding face f (outer loop first)."""
        face = self.faces[f]
        out = list(self.loops[face.outer].halfedges)
        for li in face.inners:
            out.extend(self.loops[li].halfedges)
        return out

    def face_loops(self, f: int):
        face = self.faces[f]
        return [face.outer, *face.inners]

    @property
    def num_vertices(self) -> int:
        return int(self.vertices.shape[0])


@dataclass(frozen=True)
class TransformRecord:
    """Similarity transform p' = (p - offset) * scale with exact inverse."""

    offset: tuple
    scale: float

    def invert(self, p):
        return np.asarray(p, dtype=float) / self.scale + np.asarray(self.offset)


# ---------------------------------------------------------------------------
# Builder
# ---------------------------------------------------------------------------

class ModelBuilder:
    """Incremental constructor that assembles and cross-links the tables.

    Face boundaries are given as ordered lists of (edge id, forward flag,
    pcurve) triples; ``build`` creates half-edges, twin links and loops,
    and checks that every edge is used exactly once in each direction and
    that every loop closes.
    """

    def __init__(self):
        self._vertices = []
        self._edges = []          # (curve, v0, v1)
        self._faces = []          # (surface, outer_refs, inner_refs_list)
        self._line_cache = {}

    def vertex(self, p) -> int:
        self._vertices.append(np.asarray(p, dtype=float).reshape(3))
        return len(self._vertices) - 1

    def edge(self, curve, v0: int, v1: int) -> int:
        for vid, u in ((v0, 0.0), (v1, 1.0)):
            gap = np.linalg.norm(curve.point(u) - self._vertices[vid])
            if gap > 1e-9:
                raise ModelError(
                    f"curve endpoint at u={u} misses vertex {vid} by {gap:.2e}"
                )
        self._edges.append((curve, v0, v1))
        return len(self._edges) - 1

    def line_between(self, v0: int, v1: int):
        """Get or create the straight edge between two vertices.

        Returns (edge id, True if the stored curve runs v0 -> v1).
        """
        from .geometry import LineSegment

        key = (min(v0, v1), max(v0, v1))
        if key in self._line_cache:
            eid = self._line_cache[key]
            return eid, self._edges[eid][1] == v0
        eid = self.edge(LineSegment(self._vertices[v0], self._vertices[v1]), v0, v1)
        self._line_cache[key] = eid
        return eid, True

    def face(self, surface, outer, inners=()) -> int:
        self._faces.append((surface, list(outer), [list(i) for i in inners]))
        return len(self._faces) - 1

    def build(self) -> BrepModel:
        edges_used = {}           # edge id -> {True: he, False: he}
        halfedges = []
        loops = []
        faces = []

        def add_loop(refs, kind, face_id):
            he_ids = []
            for eid, forward, pcurve in refs:
                he_id = len(halfedges)
                curve, v0, v1 = self._edges[eid]
                origin = v0 if forward else v1
                halfedges.append(
                    dict(origin=origin, edge=eid, forward=forward,
                         pcurve=pcurve, loop=len(loops))
                )
                slot = edges_used.setdefault(eid, {})
                if forward in slot:
                    raise ModelError(f"edge {eid} referenced twice with forward={forward}")
                slot[forward] = he_id
                he_ids.append(he_id)
            loops.append(dict(halfedges=tuple(he_ids), kind=kind, face=face_id))
            return len(loops) - 1

        for fid, (surface, outer, inners) in enumerate(self._faces):
            outer_id = add_loop(outer, "outer", fid)
            inner_ids = tuple(add_loop(refs, "inner", fid) for refs in inners)
            faces.append(Face(surface=surface, outer=outer_id, inners=inner_ids))

        # twin linking
        edges = []
        for eid, (curve, v0, v1) in enumerate(self._edges):
            slot = edges_used.get(eid, {})
            if set(slot) != {True, False}:
                raise ModelError(f"edge {eid} must be used once per direction, got {sorted(slot)}")
            hf, hr = slot[True], slot[False]
            halfedges[hf]["twin"] = hr
            halfedges[hr]["twin"] = hf
            edges.append(Edge(curve=curve, v0=v0, v1=v1, halfedges=(hf, hr)))

        he_objs = [
            HalfEdge(origin=h["origin"], twin=h["twin"], edge=h["edge"],
                     loop=h["loop"], forward=h["forward"], pcurve=h["pcurve"])
            for h in halfedges
        ]
        loop_objs = [Loop(halfedges=l["halfedges"], kind=l["kind"], face=l["face"])
                     for l in loops]

        model = BrepModel(
            vertices=np.array(self._vertices, dtype=float).reshape(-1, 3),
            edges=edges,
            halfedges=he_objs,
            loops=loop_objs,
            faces=faces,
        )

        # loop chains must close
        for li, loop in enumerate(loop_objs):
            cyc = loop.halfedges
            for i, h in enumerate(cyc):
                nxt = cyc[(i + 1) % len(cyc)]
                if model.destination(h) != he_objs[nxt].origin:
                    raise ModelError(f"loop {li} breaks between halfedges {h} and {nxt}")
        return model


def _union_find(n: int, pairs) -> list:
    """Classes of ``range(n)`` joined by ``pairs``.

    Returns sorted tuples ordered by smallest member.  A root is the
    smallest member of its class and ``parent[a] <= a``, so one ascending
    pass takes every member to its root.
    """
    parent = list(range(n))
    for a, b in pairs:
        while parent[a] != a:                  # path halving
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a != b:
            parent[max(a, b)] = min(a, b)

    groups = {}
    for a in range(n):
        parent[a] = parent[parent[a]]
        groups.setdefault(parent[a], []).append(a)
    return [tuple(g) for g in groups.values()]


def compute_shells(model: BrepModel) -> tuple:
    """Partition faces into shells via shared-edge adjacency."""
    loops, hes = model.loops, model.halfedges
    pairs = ((loops[hes[a].loop].face, loops[hes[b].loop].face)
             for a, b in (e.halfedges for e in model.edges))
    return tuple(_union_find(len(model.faces), pairs))


# ---------------------------------------------------------------------------
# Validation and Euler characteristics
# ---------------------------------------------------------------------------

@dataclass
class ShellStats:
    vertices: int
    edges: int
    faces: int
    inner_loops: int
    genus: float          # integral for watertight shells

    @property
    def euler_residual(self) -> float:
        return self.vertices - self.edges + self.faces - self.inner_loops - 2.0 * (
            1.0 - self.genus
        )


@dataclass
class ValidationReport:
    twin_consistent: bool
    loops_closed: bool
    manifold: bool
    watertight: bool
    shells: list = field(default_factory=list)
    defects: list = field(default_factory=list)


def _shell_stats(model: BrepModel, face_ids) -> ShellStats:
    edge_ids = set()
    vert_ids = set()
    inner = 0
    for f in face_ids:
        for li in model.face_loops(f):
            loop = model.loops[li]
            if loop.kind == "inner":
                inner += 1
            for h in loop.halfedges:
                he = model.halfedges[h]
                edge_ids.add(he.edge)
                vert_ids.add(he.origin)
    v, e, fc = len(vert_ids), len(edge_ids), len(face_ids)
    genus = (2.0 - (v - e + fc - inner)) / 2.0
    return ShellStats(vertices=v, edges=e, faces=fc, inner_loops=inner, genus=genus)


def euler_report(model: BrepModel):
    """Per-shell (V, E, F, H, genus) using the loop-corrected Euler formula."""
    return [_shell_stats(model, shell) for shell in compute_shells(model)]


def _index_defects(model: BrepModel) -> list:
    """Indices that point outside their tables."""
    nv, nh, ne = model.num_vertices, len(model.halfedges), len(model.edges)
    nl, nf = len(model.loops), len(model.faces)
    defects = []
    # each record is tested in one expression; it is spelled out only when it fails
    for i, e in enumerate(model.edges):
        if not (0 <= e.v0 < nv and 0 <= e.v1 < nv and e.halfedges
                and 0 <= min(e.halfedges) and max(e.halfedges) < nh):
            defects.extend(f"edge {i}: dangling vertex {v}" for v in (e.v0, e.v1)
                           if not (0 <= v < nv))
            defects.extend(f"edge {i}: dangling halfedge {h}" for h in e.halfedges
                           if not (0 <= h < nh))
    for i, he in enumerate(model.halfedges):
        if not (0 <= he.origin < nv and 0 <= he.twin < nh and 0 <= he.edge < ne
                and 0 <= he.loop < nl):
            for name, ref, n in (("origin", he.origin, nv), ("twin", he.twin, nh),
                                 ("edge", he.edge, ne), ("loop", he.loop, nl)):
                if not (0 <= ref < n):
                    defects.append(f"halfedge {i}: dangling {name} {ref}")
    for i, loop in enumerate(model.loops):
        if not (0 <= loop.face < nf):
            defects.append(f"loop {i}: dangling face {loop.face}")
        defects.extend(f"loop {i}: dangling halfedge {h}" for h in loop.halfedges
                       if not (0 <= h < nh))
    for i in range(nf):
        defects.extend(f"face {i}: dangling loop {li}" for li in model.face_loops(i)
                       if not (0 <= li < nl))
    return defects


def _twin_defects(model: BrepModel) -> list:
    """Twin pairs and their edges' registration: each half-edge is listed on
    its edge and starts at the edge's v0 (forward) or v1 (reverse).  Indices
    must be in range."""
    defects = []
    for i, he in enumerate(model.halfedges):
        if model.halfedges[he.twin].twin != i:
            defects.append(f"halfedge {i}: twin(twin) != self")
        if he.twin == i:
            defects.append(f"halfedge {i}: twin points to itself")
        e = model.edges[he.edge]
        if i not in e.halfedges:
            defects.append(f"halfedge {i}: not registered on edge {he.edge}")
        elif he.origin != (e.v0 if he.forward else e.v1):
            defects.append(f"edge {he.edge}: halfedge {i} starts at {he.origin}, not at "
                           f"the edge's {'v0' if he.forward else 'v1'}")
    return defects


def _loop_defects(model: BrepModel, twins_ok: bool) -> list:
    """Loop membership and backlinks, and, when ``twins_ok``, closure: each
    half-edge ends where its successor starts.  Indices must be in range."""
    defects = []
    owner = {}
    for li, loop in enumerate(model.loops):
        if len(loop.halfedges) == 0:
            defects.append(f"loop {li}: empty")
            continue
        for h in loop.halfedges:
            if h in owner:
                defects.append(f"halfedge {h}: in loops {owner[h]} and {li}")
            owner[h] = li
            if model.halfedges[h].loop != li:
                defects.append(f"halfedge {h}: loop backlink != {li}")
        if twins_ok:
            cyc = loop.halfedges
            for i, h in enumerate(cyc):
                nxt = cyc[(i + 1) % len(cyc)]
                if model.destination(h) != model.halfedges[nxt].origin:
                    defects.append(f"loop {li}: open between halfedges {h} and {nxt}")
    defects.extend(f"halfedge {h}: not in any loop" for h in range(len(model.halfedges))
                   if h not in owner)
    return defects


def _manifold_defects(model: BrepModel) -> list:
    """Edge pairs and backlinks, face-loop backlinks and kinds, loops not
    listed exactly once, and isolated vertices; indices must be in range."""
    defects = []
    for ei, e in enumerate(model.edges):
        if len(e.halfedges) != 2 or e.halfedges[0] == e.halfedges[1]:
            defects.append(f"edge {ei}: needs exactly two distinct halfedges")
            continue
        h0, h1 = e.halfedges
        if model.halfedges[h0].twin != h1:
            defects.append(f"edge {ei}: halfedges are not twins")
        if model.halfedges[h0].edge != ei or model.halfedges[h1].edge != ei:
            defects.append(f"edge {ei}: halfedges {h0} and {h1} name edges "
                           f"{model.halfedges[h0].edge} and {model.halfedges[h1].edge}")
        if {model.halfedges[h0].forward, model.halfedges[h1].forward} != {True, False}:
            defects.append(f"edge {ei}: needs one forward and one reverse halfedge")
    listed = [0] * len(model.loops)
    for fi, face in enumerate(model.faces):
        for li in model.face_loops(fi):
            listed[li] += 1
            if model.loops[li].face != fi:
                defects.append(f"face {fi}: loop {li} backlink mismatch")
        if model.loops[face.outer].kind != "outer":
            defects.append(f"face {fi}: outer loop {face.outer} marked {model.loops[face.outer].kind}")
        for li in face.inners:
            if model.loops[li].kind != "inner":
                defects.append(f"face {fi}: inner loop {li} marked {model.loops[li].kind}")
    defects.extend(f"loop {li}: listed {n} times by faces" for li, n in enumerate(listed)
                   if n != 1)
    used_verts = {he.origin for he in model.halfedges}
    defects.extend(f"vertex {v}: isolated" for v in range(model.num_vertices)
                   if v not in used_verts)
    return defects


def validate(model: BrepModel) -> ValidationReport:
    """Check structural invariants; defects are reported, never raised.

    Index checks come first; when they pass, the twin, loop and manifold
    checks run, and the per-shell Euler report when those pass too."""
    defects = _index_defects(model)
    if defects:
        return ValidationReport(False, False, False, False, [], defects)
    twin = _twin_defects(model)
    loops = _loop_defects(model, not twin)
    manifold = _manifold_defects(model)
    defects = twin + loops + manifold

    shells = [] if defects else euler_report(model)
    bad_genus = [s for s in shells if not float(s.genus).is_integer() or s.genus < 0]
    for s in bad_genus:
        defects.append(f"shell with V={s.vertices} E={s.edges} F={s.faces}: genus {s.genus}")
    return ValidationReport(
        twin_consistent=not twin,
        loops_closed=not loops,
        manifold=not manifold,
        watertight=bool(shells) and not bad_genus,
        shells=shells,
        defects=defects,
    )


# ---------------------------------------------------------------------------
# Graph and sampling operations
# ---------------------------------------------------------------------------

def connected_components(model: BrepModel):
    """Partition vertex ids under the undirected vertex-edge graph.

    Returns a list of sorted vertex-id tuples, ordered by smallest member.
    """
    return _union_find(model.num_vertices, ((e.v0, e.v1) for e in model.edges))


def halfedge_curve_samples(model: BrepModel, h, n: int) -> np.ndarray:
    """The n interior curve samples of halfedge h, ordered from its origin:
    (n, 3), or (K, n, 3) for an array of K half-edge ids."""
    hes = [model.halfedges[i] for i in np.atleast_1d(h).tolist()]
    u = np.arange(1, n + 1, dtype=float) / (n + 1)
    pts = curve_points([model.edges[he.edge].curve for he in hes], u,
                       [he.forward for he in hes])
    return pts if np.ndim(h) else pts[0]


def model_bbox(model: BrepModel):
    """Axis-aligned bounds covering vertices and all edge curves."""
    if model.num_vertices == 0:
        raise GeometryError("empty model has no bounding box")
    lo, hi = curve_bboxes([e.curve for e in model.edges])
    return (np.concatenate([model.vertices, lo]).min(axis=0),
            np.concatenate([model.vertices, hi]).max(axis=0))


NORMALIZE_MARGIN = 1.0 / 256.0


def normalize(model: BrepModel):
    """Rescale so the longest bounding-box side spans [0, 1 - NORMALIZE_MARGIN].

    The longest axis maps its minimum to 0; the other axes are centered at
    0.5.  Returns (normalized model, TransformRecord); the record inverts
    the mapping exactly.  Vertices, curves and surfaces move by the same
    map, in one `similarity` pass per geometry kind; pcurves are untouched.
    """
    lo, hi = model_bbox(model)
    extent = hi - lo
    longest = float(extent.max())
    if longest < 1e-12:
        raise GeometryError("degenerate bounding box: zero extent on every axis")
    scale = (1.0 - NORMALIZE_MARGIN) / longest
    axis = int(np.argmax(extent))
    offset = np.empty(3)
    for i in range(3):
        if i == axis:
            offset[i] = lo[i]
        else:
            offset[i] = 0.5 * (lo[i] + hi[i]) - 0.5 / scale
    record = TransformRecord(offset=tuple(float(o) for o in offset), scale=scale)

    curves = similarity([e.curve for e in model.edges], offset, scale)
    surfaces = similarity([f.surface for f in model.faces], offset, scale)
    out = BrepModel(
        vertices=(model.vertices - offset) * scale,
        edges=[Edge(curve=c, v0=e.v0, v1=e.v1, halfedges=e.halfedges)
               for e, c in zip(model.edges, curves)],
        halfedges=list(model.halfedges),
        loops=list(model.loops),
        faces=[Face(surface=s, outer=f.outer, inners=f.inners)
               for f, s in zip(model.faces, surfaces)],
    )
    return out, record
