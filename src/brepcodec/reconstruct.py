"""Detokenization back end: parsed vertex records to a solid model.

Pipeline: materialize twin half-edge drafts (averaging the two directed
copies of each edge's interior samples), solve a constrained assignment at
every vertex to recover successor pointers, trace the resulting loops,
classify them by their labels, fit a surface to every outer loop (plane
first, bicubic tensor patch when the planar residual is too large), and
attach each inner loop to the face whose surface it sits closest to.

One projector, ``_project``, finds the parameters of points on a fitted
surface: it places interior samples in a bicubic fit, measures the
distance of an inner loop to each face, and gives inner loops their
pcurves.  A plane inverts exactly; a bicubic patch takes the nearest node
of a ``UV_PROBE_GRID`` x ``UV_PROBE_GRID`` grid.

"Too large" is measured against the noise of the decoded samples, not a
fixed tolerance.  Two sources add to it: vertices are rounded to the
centres of coordinate bins (RMS error ``bin / sqrt(12)`` per coordinate),
and the residual quantizer perturbs every sample.  The quantizer's share,
sigma, is measured per model while materializing: the two directed copies
of an edge sample the same curve, so half their difference is RQ noise.
A loop keeps its plane when the plane's RMS residual is at most
``PLANE_GATE`` times the quadrature sum of the two (see ``plane_gate``).
Only a loop that fails this test gets a bicubic, and the bicubic must
beat the plane's residual.

Every stage degrades to a partial result plus diagnostics instead of
raising, so a reconstruction report is always produced.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .assignment import InfeasibleAssignmentError, solve_square
from .codec import COORD_BINS, VertexRecordSet, unpack_descriptor
from .geometry import BicubicPatch, Plane, Poly2, PolylineCurve, _bernstein3, frame_for_normal
from .model import (
    BrepModel,
    Edge,
    Face,
    HalfEdge,
    Loop,
    ValidationReport,
    compute_shells,
    validate,
)
from .sampler import SamplingConfig


# Per-coordinate RMS error of a vertex rounded to the centre of its bin.
VERTEX_BIN_RMS = 1.0 / (COORD_BINS * np.sqrt(12.0))
# A loop is planar when its plane residual is within this many noise units.
# On every 5th acceptance-corpus model, under the acceptance codebook,
# planar loops stay below 2.5 units and cylinder walls above 4.7.
PLANE_GATE = 3.0
# Least-squares weight of boundary samples against interior ones in a
# bicubic fit.
BOUNDARY_WEIGHT = 10.0
# A vertex whose assignment costs more than this is reported as elevated.
ELEVATED_COST = 0.8
# Per-axis node count of the grid `_project` searches on a bicubic patch.
UV_PROBE_GRID = 33


@dataclass(eq=False)
class HalfEdgeDraft:
    index: int
    origin: int
    dest: int
    twin: int
    edge_index: int
    curve_pts: np.ndarray      # (N_c + 2, 3), endpoints first and last
    surface_pts: np.ndarray    # (N_c, N_s - 1, 3)
    next_pts: np.ndarray       # (N_n, 3)
    label: int
    noise: float = 0.0         # the model's RQ noise sigma, per coordinate


@dataclass(eq=False)
class AssignmentProblem:
    vertex: int
    incoming: list
    outgoing: list
    cost: np.ndarray
    forbidden: np.ndarray


@dataclass(eq=False)
class LoopDraft:
    drafts: list
    kind: str = ""


@dataclass
class ReconstructionReport:
    success: bool = False
    total_assignment_cost: float = 0.0
    infeasible_vertices: list = field(default_factory=list)
    elevated_cost_vertices: list = field(default_factory=list)
    loop_count: int = 0
    faces_built: int = 0
    inner_loops_attached: int = 0
    notes: list = field(default_factory=list)
    validation: ValidationReport | None = None


# ---------------------------------------------------------------------------
# Stage 1: materialize drafts
# ---------------------------------------------------------------------------

def materialize_half_edges(records: VertexRecordSet, cfg: SamplingConfig | None = None):
    """Build twin half-edge drafts from parsed records.

    The interior curve samples of the two directed copies of each edge are
    averaged (one reversed) so twins carry identical geometry; endpoints
    are pinned to the dequantized vertex positions.  The RMS of half the
    copies' difference, over all edges, is the model's RQ noise; every
    draft carries it as ``noise``.
    Returns (drafts, vertex positions, edge endpoint list).
    """
    cfg = cfg or SamplingConfig()
    drafts = []
    positions = []
    edge_verts = []
    gaps = []
    offset = 0
    for comp in records.components:
        positions.append(comp.positions)
        for er in comp.edges:
            if er.desc_ij is None or er.desc_ji is None:
                raise ValueError("records carry no decoded descriptors; "
                                 "parse with a codebook first")
            hp_ij, next_ij, label_ij = unpack_descriptor(er.desc_ij, cfg)
            hp_ji, next_ji, label_ji = unpack_descriptor(er.desc_ji, cfg)
            vi, vj = er.i + offset, er.j + offset
            pi, pj = comp.positions[er.i], comp.positions[er.j]
            fwd = 0.5 * (hp_ij[:, 0, :] + hp_ji[::-1, 0, :])
            gaps.append(0.5 * (hp_ij[:, 0, :] - hp_ji[::-1, 0, :]))
            fwd_curve = np.vstack([pi, fwd, pj])
            bwd_curve = fwd_curve[::-1]
            k = len(drafts)
            drafts.append(HalfEdgeDraft(
                index=k, origin=vi, dest=vj, twin=k + 1, edge_index=len(edge_verts),
                curve_pts=fwd_curve, surface_pts=hp_ij[:, 1:, :],
                next_pts=next_ij, label=label_ij))
            drafts.append(HalfEdgeDraft(
                index=k + 1, origin=vj, dest=vi, twin=k, edge_index=len(edge_verts),
                curve_pts=bwd_curve, surface_pts=hp_ji[:, 1:, :],
                next_pts=next_ji, label=label_ji))
            edge_verts.append((vi, vj))
        offset += comp.positions.shape[0]
    if gaps:
        noise = float(np.sqrt(np.mean(np.square(gaps))))
        for d in drafts:
            d.noise = noise
    verts = np.concatenate(positions) if positions else np.zeros((0, 3))
    return drafts, verts, edge_verts


# ---------------------------------------------------------------------------
# Stage 2: successor assignment per vertex
# ---------------------------------------------------------------------------

def candidate_samples(draft: HalfEdgeDraft, n_next: int) -> np.ndarray:
    """The draft's first n_next on-curve samples outward from its origin."""
    return draft.curve_pts[1: 1 + n_next]


def vertex_stars(drafts) -> dict:
    """vertex -> (incoming, outgoing) draft ids, each in ascending draft order."""
    stars = {}
    for d in drafts:
        stars.setdefault(d.dest, ([], []))[0].append(d.index)
        stars.setdefault(d.origin, ([], []))[1].append(d.index)
    return stars


def build_assignment(vertex: int, drafts, n_next: int,
                     star: tuple | None = None) -> AssignmentProblem | None:
    """The vertex's cost matrix; ``star`` is its `vertex_stars` entry if known."""
    incoming, outgoing = star if star is not None else \
        vertex_stars(drafts).get(vertex, ([], []))
    if not incoming:
        return None
    cost = np.zeros((len(incoming), len(outgoing)))
    forbidden = np.zeros_like(cost, dtype=bool)
    for a, di in enumerate(incoming):
        p = drafts[di].next_pts
        for b, dj in enumerate(outgoing):
            c = candidate_samples(drafts[dj], n_next)
            cost[a, b] = float(np.linalg.norm(p - c, axis=1).sum())
            forbidden[a, b] = drafts[di].twin == dj
    return AssignmentProblem(vertex=vertex, incoming=incoming, outgoing=outgoing,
                             cost=cost, forbidden=forbidden)


def solve_assignment(problem: AssignmentProblem):
    """Constrained matching; falls back to allowing twins when infeasible.

    Returns (next pairs, cost, infeasible flag).
    """
    masked = problem.cost.copy()
    masked[problem.forbidden] = np.inf
    try:
        cols, total = solve_square(masked)
        infeasible = False
    except InfeasibleAssignmentError:
        cols, total = solve_square(problem.cost)
        infeasible = True
    pairs = [(problem.incoming[a], problem.outgoing[cols[a]])
             for a in range(len(problem.incoming))]
    return pairs, total, infeasible


def solve_next_map(drafts, n_vertices: int, cfg: SamplingConfig):
    next_map = {}
    total = 0.0
    infeasible = []
    elevated = []
    stars = vertex_stars(drafts)
    for v in range(n_vertices):
        problem = build_assignment(v, drafts, cfg.n_next, stars.get(v, ([], [])))
        if problem is None:
            continue
        pairs, cost, bad = solve_assignment(problem)
        next_map.update(pairs)
        total += cost
        if bad:
            infeasible.append(v)
        if cost > ELEVATED_COST:
            elevated.append(v)
    return next_map, total, infeasible, elevated


# ---------------------------------------------------------------------------
# Stage 3: loops
# ---------------------------------------------------------------------------

def trace_loops(next_map: dict) -> list:
    """Orbits of the successor bijection, each a LoopDraft."""
    seen = set()
    loops = []
    for start in sorted(next_map):
        if start in seen:
            continue
        cycle = [start]
        seen.add(start)
        cur = next_map[start]
        while cur != start:
            cycle.append(cur)
            seen.add(cur)
            cur = next_map[cur]
        loops.append(LoopDraft(drafts=cycle))
    return loops


def classify_loops(loops, drafts) -> None:
    """Majority vote over member labels; ties resolve to outer."""
    for loop in loops:
        votes = sum(drafts[d].label for d in loop.drafts)
        loop.kind = "outer" if 2 * votes >= len(loop.drafts) else "inner"


# ---------------------------------------------------------------------------
# Projection onto a fitted surface
# ---------------------------------------------------------------------------

# The nodes of the probe grid, (UV_PROBE_GRID**2, 2), u-major.
_PROBE_UV = np.stack([a.ravel() for a in np.meshgrid(
    np.linspace(0.0, 1.0, UV_PROBE_GRID), np.linspace(0.0, 1.0, UV_PROBE_GRID),
    indexing="ij")], axis=-1)


def _project(points: np.ndarray, surface) -> np.ndarray:
    """Parameters (N, 2) of the points of ``surface`` nearest ``points`` (N, 3).

    A Plane inverts exactly and unclipped; a bicubic patch (the only other
    surface ``fit_face`` builds) takes the nearest node of the
    ``UV_PROBE_GRID`` x ``UV_PROBE_GRID`` grid over [0, 1]^2.
    """
    if isinstance(surface, Plane):
        return surface.uv_of_point(points)
    probes = surface.point(_PROBE_UV[:, 0], _PROBE_UV[:, 1])
    d = ((points[:, None, :] - probes[None, :, :]) ** 2).sum(axis=2)
    return _PROBE_UV[d.argmin(axis=1)]


# ---------------------------------------------------------------------------
# Stage 4: face fitting
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class FittedFace:
    surface: object
    pcurves: dict              # draft id -> pcurve
    rms: float
    planar: bool
    notes: list = field(default_factory=list)


def _plane_fit(points: np.ndarray):
    centroid = points.mean(axis=0)
    _, _, vt = np.linalg.svd(points - centroid, full_matrices=False)
    normal = vt[-1]
    res = (points - centroid) @ normal
    return centroid, normal, float(np.sqrt(np.mean(res**2)))


def _plane_face(loop_runs, interior, centroid, normal):
    u0, v0 = frame_for_normal(normal)
    allpts = np.vstack([np.concatenate(loop_runs), interior]) if interior.size \
        else np.concatenate(loop_runs)
    s = (allpts - centroid) @ u0
    t = (allpts - centroid) @ v0
    pad = 0.05 * max(s.max() - s.min(), t.max() - t.min(), 1e-9)
    lo = np.array([s.min() - pad, t.min() - pad])
    span = np.array([s.max() - s.min() + 2 * pad, t.max() - t.min() + 2 * pad])

    def uv_of(pts):
        d = pts - centroid
        return (np.stack([d @ u0, d @ v0], axis=-1) - lo) / span

    cycle_uv = uv_of(np.concatenate([run[:-1] for run in loop_runs]))
    x, y = cycle_uv[:, 0], cycle_uv[:, 1]
    area = 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))
    origin3 = centroid + lo[0] * u0 + lo[1] * v0
    if area >= 0:
        plane = Plane(origin3, span[0] * u0, span[1] * v0)
        return plane, uv_of
    flipped = Plane(origin3 + span[1] * v0, span[0] * u0, -span[1] * v0)

    def uv_flip(pts):
        uv = uv_of(pts)
        return np.stack([uv[..., 0], 1.0 - uv[..., 1]], axis=-1)

    return flipped, uv_flip


def _side_params(points: np.ndarray) -> np.ndarray:
    seg = np.linalg.norm(np.diff(points, axis=0), axis=1)
    t = np.concatenate([[0.0], np.cumsum(seg)])
    return t / max(t[-1], 1e-12)


def _fit_side_bezier(points: np.ndarray) -> np.ndarray:
    """Least-squares cubic through fixed endpoints; (M, 3) -> (4, 3)."""
    if points.shape[0] == 2:
        return np.stack([points[0],
                         points[0] + (points[1] - points[0]) / 3.0,
                         points[0] + 2.0 * (points[1] - points[0]) / 3.0,
                         points[1]])
    basis = _bernstein3(_side_params(points))
    rhs = points - np.outer(basis[:, 0], points[0]) - np.outer(basis[:, 3], points[-1])
    a = basis[:, 1:3]
    sol, *_ = np.linalg.lstsq(a, rhs, rcond=None)
    return np.stack([points[0], sol[0], sol[1], points[-1]])


_SIDE_UV = (
    lambda t: np.stack([t, np.zeros_like(t)], axis=-1),          # v = 0
    lambda t: np.stack([np.ones_like(t), t], axis=-1),           # u = 1
    lambda t: np.stack([1.0 - t, np.ones_like(t)], axis=-1),     # v = 1
    lambda t: np.stack([np.zeros_like(t), 1.0 - t], axis=-1),    # u = 0
)


def _split_cycle_quarters(runs):
    """Regroup a loop's per-draft point runs into exactly four sides."""
    cycle = np.concatenate([r[:-1] for r in runs])
    m = cycle.shape[0]
    closed = np.vstack([cycle, cycle[:1]])
    seg = np.linalg.norm(np.diff(closed, axis=0), axis=1)
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    total = max(cum[-1], 1e-12)
    cuts = [0]
    for q in (0.25, 0.5, 0.75):
        idx = int(np.searchsorted(cum, q * total))
        idx = min(max(idx, cuts[-1] + 1), m - (3 - len(cuts)))
        cuts.append(idx)
    cuts.append(m)
    return [closed[cuts[k]: cuts[k + 1] + 1] for k in range(4)]


def _bicubic_face(loop_ids, runs, interior):
    """Coons-initialized bicubic least squares with boundary weighting."""
    notes = []
    one_side_per_draft = len(runs) == 4
    sides = runs if one_side_per_draft else _split_cycle_quarters(runs)

    grid = np.zeros((4, 4, 3))
    cps = [_fit_side_bezier(s) for s in sides]
    grid[:, 0] = cps[0]
    grid[3, :] = cps[1]
    grid[:, 3] = cps[2][::-1]
    grid[0, :] = cps[3][::-1]
    grid[1, 1] = grid[1, 0] + grid[0, 1] - grid[0, 0]
    grid[2, 1] = grid[2, 0] + grid[3, 1] - grid[3, 0]
    grid[1, 2] = grid[1, 3] + grid[0, 2] - grid[0, 3]
    grid[2, 2] = grid[2, 3] + grid[3, 2] - grid[3, 3]
    coons = BicubicPatch(grid)

    # boundary UVs follow the side parameterization
    bnd_pts = []
    bnd_uv = []
    side_point_uvs = []
    for k, side in enumerate(sides):
        t = _side_params(side)
        uv = _SIDE_UV[k](t)
        side_point_uvs.append(uv)
        bnd_pts.append(side[:-1])
        bnd_uv.append(uv[:-1])
    bnd_pts = np.concatenate(bnd_pts)
    bnd_uv = np.concatenate(bnd_uv)

    # interior UVs: the samples projected onto the Coons patch
    int_uv = _project(interior, coons) if interior.size else np.zeros((0, 2))

    pts = np.vstack([bnd_pts, interior.reshape(-1, 3)]) if interior.size else bnd_pts
    uvs = np.vstack([bnd_uv, int_uv])
    w = np.concatenate([np.full(len(bnd_pts), BOUNDARY_WEIGHT),
                        np.ones(len(uvs) - len(bnd_pts))])
    if pts.shape[0] < 16:
        return None, notes + ["bicubic fit under-determined"]

    bu = _bernstein3(uvs[:, 0])
    bv = _bernstein3(uvs[:, 1])
    a = (bu[:, :, None] * bv[:, None, :]).reshape(len(uvs), 16)
    aw = a * w[:, None]
    sol, *_ = np.linalg.lstsq(aw, pts * w[:, None], rcond=None)
    patch = BicubicPatch(sol.reshape(4, 4, 3))
    rms = float(np.sqrt(np.mean(
        np.linalg.norm(patch.point(uvs[:, 0], uvs[:, 1]) - pts, axis=1) ** 2)))

    # per-draft pcurves from the boundary UV assignment
    pcurves = {}
    if one_side_per_draft:
        for k, d in enumerate(loop_ids):
            pcurves[d] = Poly2(side_point_uvs[k])
    else:
        flat_uv = np.concatenate([uv[:-1] for uv in side_point_uvs])
        pos = 0
        for d, run in zip(loop_ids, runs):
            c = run.shape[0] - 1
            seg = [flat_uv[(pos + o) % len(flat_uv)] for o in range(c + 1)]
            pcurves[d] = Poly2(np.array(seg))
            pos += c
    return FittedFace(surface=patch, pcurves=pcurves, rms=rms, planar=False,
                      notes=notes), notes


def plane_gate(loop: LoopDraft, drafts) -> float:
    """Largest plane RMS residual that ``fit_face`` takes for noise.

    ``PLANE_GATE`` times the quadrature sum of the vertex rounding error
    and the RQ noise carried by the loop's drafts.
    """
    noise = max(drafts[d].noise for d in loop.drafts)
    return PLANE_GATE * float(np.hypot(VERTEX_BIN_RMS, noise))


def fit_face(loop: LoopDraft, drafts) -> FittedFace:
    """Fit a plane, else a bicubic patch, to a loop's boundary and samples.

    The plane is kept when its residual is within ``plane_gate``; otherwise
    a bicubic is fitted and kept only if its residual is lower.
    """
    runs = [drafts[d].curve_pts for d in loop.drafts]
    interior = np.concatenate([drafts[d].surface_pts.reshape(-1, 3)
                               for d in loop.drafts])
    allpts = np.vstack([np.concatenate(runs), interior])
    centroid, normal, rms = _plane_fit(allpts)
    notes = []
    if rms > plane_gate(loop, drafts):
        fitted, notes = _bicubic_face(loop.drafts, runs, interior)
        if fitted is not None and fitted.rms <= rms:
            return fitted
        notes = notes + ["bicubic fit rejected; plane kept"]
    plane, uv_of = _plane_face(runs, interior, centroid, normal)
    pcurves = {d: Poly2(uv_of(drafts[d].curve_pts)) for d in loop.drafts}
    return FittedFace(surface=plane, pcurves=pcurves, rms=rms, planar=True,
                      notes=notes)


# ---------------------------------------------------------------------------
# Stage 5: inner-loop attachment
# ---------------------------------------------------------------------------

def _surface_distances(points: np.ndarray, surface) -> np.ndarray:
    """Distance of each point to its projection, clipped to the patch."""
    uv = np.clip(_project(points, surface), 0.0, 1.0)
    return np.linalg.norm(points - surface.point(uv[:, 0], uv[:, 1]), axis=1)


def attach_inner_loops(inner_loops, faces, drafts):
    """Assign each inner loop to the face minimizing mean sample distance.

    Returns a list of face indices aligned with ``inner_loops``.
    """
    if inner_loops and not faces:
        raise ValueError("cannot attach inner loops: no faces were built")
    assignments = []
    for loop in inner_loops:
        pts = np.concatenate([drafts[d].curve_pts[:-1] for d in loop.drafts])
        means = [float(_surface_distances(pts, f.surface).mean()) for f in faces]
        assignments.append(int(np.argmin(means)))
    return assignments


def _inner_pcurves(loop: LoopDraft, face: FittedFace, drafts):
    return {d: Poly2(_project(drafts[d].curve_pts, face.surface)) for d in loop.drafts}


# ---------------------------------------------------------------------------
# Full pipeline
# ---------------------------------------------------------------------------

def reconstruct(records: VertexRecordSet, cfg: SamplingConfig | None = None):
    """Records -> (BrepModel | None, ReconstructionReport); ``cfg`` is the encoder's."""
    cfg = cfg or SamplingConfig()
    report = ReconstructionReport()
    try:
        drafts, verts, edge_verts = materialize_half_edges(records, cfg)
    except Exception as exc:
        report.notes.append(f"materialization failed: {exc}")
        return None, report
    if not drafts:
        report.notes.append("no edges to reconstruct")
        return None, report

    try:
        next_map, total, infeasible, elevated = solve_next_map(
            drafts, verts.shape[0], cfg)
        report.total_assignment_cost = total
        report.infeasible_vertices = infeasible
        report.elevated_cost_vertices = elevated

        loops = trace_loops(next_map)
        classify_loops(loops, drafts)
        report.loop_count = len(loops)
        outer = [l for l in loops if l.kind == "outer"]
        inner = [l for l in loops if l.kind == "inner"]

        faces = [fit_face(l, drafts) for l in outer]
        report.faces_built = len(faces)
        for f in faces:
            report.notes.extend(f.notes)

        attach = attach_inner_loops(inner, faces, drafts) if inner else []
        report.inner_loops_attached = len(attach)
    except Exception as exc:
        report.notes.append(f"reconstruction failed: {exc}")
        return None, report

    try:
        model = _assemble(drafts, verts, edge_verts, outer, inner, faces, attach)
    except Exception as exc:
        report.notes.append(f"assembly failed: {exc}")
        return None, report

    report.validation = validate(model)
    report.success = report.validation.watertight
    if not report.success:
        report.notes.append("result is not watertight")
    return model, report


def _assemble(drafts, verts, edge_verts, outer, inner, faces, attach):
    loop_objs = []
    inners_per_face = [[] for _ in faces]
    for loop, fi in zip(inner, attach):
        inners_per_face[fi].append(loop)

    pcurve_of = {}
    ordered_loops = []
    face_objs = []
    for fi, (loop, fitted) in enumerate(zip(outer, faces)):
        outer_id = len(ordered_loops)
        ordered_loops.append((loop, "outer", fi))
        pcurve_of.update(fitted.pcurves)
        inner_ids = []
        for il in inners_per_face[fi]:
            inner_ids.append(len(ordered_loops))
            ordered_loops.append((il, "inner", fi))
            pcurve_of.update(_inner_pcurves(il, fitted, drafts))
        face_objs.append(Face(surface=fitted.surface, outer=outer_id,
                              inners=tuple(inner_ids)))

    loop_of_draft = {}
    for li, (loop, kind, fi) in enumerate(ordered_loops):
        for d in loop.drafts:
            loop_of_draft[d] = li
        loop_objs.append(Loop(halfedges=tuple(loop.drafts), kind=kind, face=fi))

    halfedges = []
    for d in drafts:
        halfedges.append(HalfEdge(
            origin=d.origin, twin=d.twin, edge=d.edge_index,
            loop=loop_of_draft.get(d.index, -1),
            forward=(d.index % 2 == 0),
            pcurve=pcurve_of.get(d.index)))

    edges = []
    for ei, (vi, vj) in enumerate(edge_verts):
        fwd = 2 * ei
        edges.append(Edge(curve=PolylineCurve(drafts[fwd].curve_pts),
                          v0=vi, v1=vj, halfedges=(fwd, fwd + 1)))

    model = BrepModel(vertices=verts, edges=edges, halfedges=halfedges,
                      loops=loop_objs, faces=face_objs)
    model.shells = compute_shells(model)
    return model
