"""Watertight solid primitives used by the synthetic corpus generator.

Every constructor returns a fully topologized :class:`BrepModel` with
pcurves on all half-edges and outward-oriented surfaces (outer loops wind
counter-clockwise in UV).
"""
from __future__ import annotations

import numpy as np

from .geometry import (
    TAU,
    Arc2,
    CircularArc,
    CylinderPatch,
    LineSegment,
    Plane,
    Segment2,
    frame_for_normal,
)
from .model import BrepModel, ModelBuilder, ModelError


def _signed_area(uv: np.ndarray) -> float:
    x, y = uv[:, 0], uv[:, 1]
    x1, y1 = np.concatenate([x[1:], x[:1]]), np.concatenate([y[1:], y[:1]])   # next vertex
    return 0.5 * float(np.sum(x * y1 - x1 * y))


PLANE_MARGIN = 0.1   # plane domain padding, as a fraction of the loop's longer UV side


def add_planar_face(b: ModelBuilder, cycle, outward, inners=()):
    """Add a planar face bounded by straight edges between listed vertices.

    ``cycle`` and each entry of ``inners`` are vertex-id cycles; their
    traversal direction is auto-oriented (outer CCW, inner CW in UV).
    ``outward`` orients the plane so Pu x Pv points out of the solid.
    """
    outward = np.asarray(outward, dtype=float)
    u0, v0 = frame_for_normal(outward)
    base = b._vertices[cycle[0]]

    # each vertex's in-plane (s, t), once per face
    all_vids = list(cycle)
    for inner in inners:
        all_vids.extend(inner)
    row = {v: i for i, v in enumerate(all_vids)}
    pts = np.array([(d @ u0, d @ v0) for d in (b._vertices[v] - base for v in all_vids)])
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    pad = PLANE_MARGIN * max(hi[0] - lo[0], hi[1] - lo[1], 1e-9)
    span = hi - lo + 2 * pad
    origin3 = base + (lo[0] - pad) * u0 + (lo[1] - pad) * v0
    plane = Plane(origin3, span[0] * u0, span[1] * v0)
    uv = (pts - lo + pad) / span

    def loop_refs(vids, want_ccw):
        if (_signed_area(uv[[row[v] for v in vids]]) > 0) != want_ccw:
            vids = list(reversed(vids))
        refs = []
        for i, va in enumerate(vids):
            vb = vids[(i + 1) % len(vids)]
            eid, along = b.line_between(va, vb)
            refs.append((eid, along, Segment2(uv[row[va]], uv[row[vb]])))
        return refs

    return b.face(plane, loop_refs(list(cycle), True),
                  [loop_refs(list(i), False) for i in inners])


# ---------------------------------------------------------------------------
# Primitive families
# ---------------------------------------------------------------------------

def box(size=(1.0, 1.0, 1.0), at=(0.0, 0.0, 0.0)) -> BrepModel:
    """Axis-aligned box: 8 vertices, 12 edges, 6 planar faces."""
    at = np.asarray(at, dtype=float)
    size = np.asarray(size, dtype=float)
    if np.any(size <= 0):
        raise ModelError("box extents must be positive")
    b = ModelBuilder()
    vid = {}
    for c in range(2):
        for bb in range(2):
            for a in range(2):
                vid[(a, bb, c)] = b.vertex(at + size * np.array([a, bb, c]))

    def corner(axis, s, p, q):
        # p, q index the two non-face axes in ascending axis order
        coords = [0, 0, 0]
        coords[axis] = s
        others = [i for i in range(3) if i != axis]
        coords[others[0]] = p
        coords[others[1]] = q
        return vid[tuple(coords)]

    for axis in range(3):
        for s in (0, 1):
            cyc = [corner(axis, s, 0, 0), corner(axis, s, 1, 0),
                   corner(axis, s, 1, 1), corner(axis, s, 0, 1)]
            outward = np.zeros(3)
            outward[axis] = 1.0 if s else -1.0
            add_planar_face(b, cyc, outward)
    return b.build()


def ngon_prism(n: int = 6, radius: float = 0.5, height: float = 1.0,
               at=(0.0, 0.0, 0.0), phase: float = 0.0) -> BrepModel:
    """Right prism over a regular n-gon: 2n vertices, 3n edges, n+2 faces."""
    if n < 3:
        raise ModelError("prism needs n >= 3")
    at = np.asarray(at, dtype=float)
    b = ModelBuilder()
    theta = phase + TAU * np.arange(n) / n
    bot = [b.vertex(at + np.array([radius * np.cos(t), radius * np.sin(t), 0.0]))
           for t in theta]
    top = [b.vertex(at + np.array([radius * np.cos(t), radius * np.sin(t), height]))
           for t in theta]
    add_planar_face(b, bot, (0.0, 0.0, -1.0))
    add_planar_face(b, top, (0.0, 0.0, 1.0))
    for i in range(n):
        j = (i + 1) % n
        mid = 0.5 * (theta[i] + theta[(i + 1) % n]) if j else 0.5 * (theta[i] + theta[0] + TAU)
        outward = np.array([np.cos(mid), np.sin(mid), 0.0])
        add_planar_face(b, [bot[i], bot[j], top[j], top[i]], outward)
    return b.build()


def seam_cylinder(radius: float = 0.5, height: float = 1.0,
                  at=(0.0, 0.0, 0.0), cap_margin: float = 0.25) -> BrepModel:
    """Closed cylinder cut by a seam edge at angle 0.

    2 vertices, 3 edges (two full-circle self-loops plus the seam), and 3
    faces: two planar caps and the lateral wall whose parameter domain is
    the full rectangle [0, 2*pi] x [0, 1].
    """
    if radius <= 0 or height <= 0:
        raise ModelError("cylinder radius and height must be positive")
    cx, cy, z0 = (float(x) for x in at)
    z1 = z0 + height
    ex = np.array([1.0, 0.0, 0.0])
    ey = np.array([0.0, 1.0, 0.0])

    b = ModelBuilder()
    va = b.vertex((cx + radius, cy, z0))
    vb = b.vertex((cx + radius, cy, z1))
    circ_bot = b.edge(CircularArc((cx, cy, z0), radius, ex, ey, 0.0, TAU), va, va)
    circ_top = b.edge(CircularArc((cx, cy, z1), radius, ex, ey, 0.0, TAU), vb, vb)
    seam = b.edge(LineSegment((cx + radius, cy, z0), (cx + radius, cy, z1)), va, vb)

    wall = CylinderPatch((cx, cy, z0), radius, ex, ey, (0.0, 0.0, height), 0.0, TAU)
    b.face(wall, [
        (circ_bot, True, Segment2((0.0, 0.0), (TAU, 0.0))),
        (seam, True, Segment2((TAU, 0.0), (TAU, 1.0))),
        (circ_top, False, Segment2((TAU, 1.0), (0.0, 1.0))),
        (seam, False, Segment2((0.0, 1.0), (0.0, 0.0))),
    ])

    pad = radius * (1.0 + cap_margin)
    side = 2.0 * pad
    rho = radius / side
    bot_plane = Plane((cx - pad, cy - pad, z0), (0.0, side, 0.0), (side, 0.0, 0.0))
    b.face(bot_plane, [
        (circ_bot, False, Arc2((0.5, 0.5), rho, np.pi / 2 - TAU, np.pi / 2)),
    ])
    top_plane = Plane((cx - pad, cy - pad, z1), (side, 0.0, 0.0), (0.0, side, 0.0))
    b.face(top_plane, [
        (circ_top, True, Arc2((0.5, 0.5), rho, 0.0, TAU)),
    ])
    return b.build()


def through_hole_box(size=(1.0, 1.0, 0.6), hole_lo=(0.35, 0.35), hole_hi=(0.65, 0.65),
                     at=(0.0, 0.0, 0.0)) -> BrepModel:
    """Box with a rectangular hole through its z axis.

    16 vertices, 24 edges, 10 faces, 2 inner loops; genus 1.
    """
    at = np.asarray(at, dtype=float)
    size = np.asarray(size, dtype=float)
    hx0, hy0 = (float(v) for v in hole_lo)
    hx1, hy1 = (float(v) for v in hole_hi)
    if not (0 < hx0 < hx1 < size[0] and 0 < hy0 < hy1 < size[1]):
        raise ModelError("hole rectangle must lie strictly inside the box footprint")
    z0, z1 = at[2], at[2] + size[2]

    b = ModelBuilder()
    out_xy = [(0, 0), (size[0], 0), (size[0], size[1]), (0, size[1])]
    hole_xy = [(hx0, hy0), (hx1, hy0), (hx1, hy1), (hx0, hy1)]
    ob = [b.vertex((at[0] + x, at[1] + y, z0)) for x, y in out_xy]
    ot = [b.vertex((at[0] + x, at[1] + y, z1)) for x, y in out_xy]
    hb = [b.vertex((at[0] + x, at[1] + y, z0)) for x, y in hole_xy]
    ht = [b.vertex((at[0] + x, at[1] + y, z1)) for x, y in hole_xy]

    add_planar_face(b, ob, (0, 0, -1), inners=[hb])
    add_planar_face(b, ot, (0, 0, 1), inners=[ht])
    for i in range(4):
        j = (i + 1) % 4
        d = np.array(out_xy[j]) - np.array(out_xy[i])
        outward = np.array([d[1], -d[0], 0.0])
        add_planar_face(b, [ob[i], ob[j], ot[j], ot[i]], outward)
    for i in range(4):
        j = (i + 1) % 4
        d = np.array(hole_xy[j]) - np.array(hole_xy[i])
        # hole walls face into the void: opposite of the outer-wall rule
        outward = np.array([-d[1], d[0], 0.0])
        add_planar_face(b, [hb[i], hb[j], ht[j], ht[i]], outward)
    return b.build()


def l_bracket(width: float = 1.0, depth: float = 1.0, height: float = 0.6,
              leg_x: float = 0.4, leg_y: float = 0.4, at=(0.0, 0.0, 0.0)) -> BrepModel:
    """L-shaped prism: 12 vertices, 18 edges, 8 faces."""
    if not (0 < leg_x < width and 0 < leg_y < depth):
        raise ModelError("bracket legs must be thinner than the footprint")
    at = np.asarray(at, dtype=float)
    poly = [(0.0, 0.0), (width, 0.0), (width, leg_y), (leg_x, leg_y),
            (leg_x, depth), (0.0, depth)]
    b = ModelBuilder()
    bot = [b.vertex(at + np.array([x, y, 0.0])) for x, y in poly]
    top = [b.vertex(at + np.array([x, y, height])) for x, y in poly]
    add_planar_face(b, bot, (0, 0, -1))
    add_planar_face(b, top, (0, 0, 1))
    for i in range(len(poly)):
        j = (i + 1) % len(poly)
        d = np.array(poly[j]) - np.array(poly[i])
        outward = np.array([d[1], -d[0], 0.0])
        add_planar_face(b, [bot[i], bot[j], top[j], top[i]], outward)
    return b.build()


def merge_models(models) -> BrepModel:
    """Disjoint union of models with index offsets."""
    from .model import Edge, Face, HalfEdge, Loop

    verts = []
    edges = []
    halfedges = []
    loops = []
    faces = []
    for m in models:
        ov, oe, oh, ol, of = (len(verts), len(edges), len(halfedges),
                              len(loops), len(faces))
        verts.extend(m.vertices)
        for e in m.edges:
            edges.append(Edge(curve=e.curve, v0=e.v0 + ov, v1=e.v1 + ov,
                              halfedges=(e.halfedges[0] + oh, e.halfedges[1] + oh)))
        for h in m.halfedges:
            halfedges.append(HalfEdge(origin=h.origin + ov, twin=h.twin + oh,
                                      edge=h.edge + oe, loop=h.loop + ol,
                                      forward=h.forward, pcurve=h.pcurve))
        for l in m.loops:
            loops.append(Loop(halfedges=tuple(h + oh for h in l.halfedges),
                              kind=l.kind, face=l.face + of))
        for f in m.faces:
            faces.append(Face(surface=f.surface, outer=f.outer + ol,
                              inners=tuple(i + ol for i in f.inners)))
    return BrepModel(vertices=np.array(verts, dtype=float).reshape(-1, 3),
                     edges=edges, halfedges=halfedges, loops=loops, faces=faces)
