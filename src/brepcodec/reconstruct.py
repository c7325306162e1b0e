"""Detokenization back end: parsed vertex records to a solid model.

Pipeline: materialize twin half-edge drafts (averaging the two directed
copies of each edge's interior samples), solve a constrained assignment at
every vertex to recover successor pointers, trace the resulting loops,
classify them by their labels, fit a surface to every outer loop (plane
first, bicubic tensor patch when the planar residual is too large), and
attach each inner loop to the face whose surface it sits closest to.

The drafts of a model are arrays (`Drafts`) indexed by draft id, one
unpack of the parsed descriptor matrices: drafts ``2k`` and ``2k + 1`` are
edge ``k``'s two directions, so the twin of draft ``d`` is ``d ^ 1``.
The numerics run as array passes over a whole model: `star_problems`
gathers every vertex star from two stable argsorts of the drafts' origins
and destinations and prices every pair at once, `solve_next_map`
matches every star of degree at most 4 in one pass over its permutations
(larger stars, near ties and non-finite costs go one by one through
`solve_square`), `fit_faces` fits the planes of all outer loops at once
(only loops above the plane gate get a bicubic, one by one), and
`attach_inner_loops` measures each inner loop against every planar face at
once.  The report times each stage and counts planar, bicubic and refused
bicubic faces.

One projector, ``_project``, finds the parameters of points on a fitted
surface: it places interior samples in a bicubic fit, measures the
distance of an inner loop to each bicubic face, and gives inner loops
their pcurves.  A plane inverts exactly; a bicubic patch takes the nearest
node of a ``UV_PROBE_GRID`` x ``UV_PROBE_GRID`` grid.  One BLAS product
scores every node against a block of points; only the nodes that score
within a rounding margin of the best get exact probes and exact distances,
so the answer is the exact grid search's, bit for bit.

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

import time
from collections import namedtuple
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import islice, permutations

import numpy as np

from .assignment import InfeasibleAssignmentError, solve_square
from .codec import COORD_BINS, VertexRecordSet
from .geometry import (BicubicPatch, Plane, Poly2, PolylineCurve, _bernstein3, _build,
                       _tensor_basis, frame_for_normal)
from .model import BrepModel, Edge, Face, HalfEdge, Loop, ValidationReport, validate
from .sampler import SamplingConfig, unpack_descriptor


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
# Points per block of that search: a block's score array holds
# PROJECT_BLOCK x UV_PROBE_GRID**2 doubles (2.2 MB); only the nodes within the
# rounding margin of a point's best score get exact distances.
PROJECT_BLOCK = 256


@dataclass(eq=False)
class Drafts:
    """A model's half-edge drafts, row ``d`` of each array for draft ``d``: its
    twin is ``d ^ 1``, its edge ``d // 2``, its destination the twin's origin."""
    origin: np.ndarray         # (2E,) vertex ids
    curve: np.ndarray          # (2E, N_c + 2, 3), endpoints first and last
    surface: np.ndarray        # (2E, N_c, N_s - 1, 3)
    next: np.ndarray           # (2E, N_n, 3)
    label: np.ndarray          # (2E,) 1 outer, 0 inner
    noise: float = 0.0         # the model's RQ noise sigma, per coordinate


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
    planar_faces: int = 0
    bicubic_faces: int = 0
    bicubic_rejected: int = 0      # planar faces whose bicubic fit was refused
    inner_loops_attached: int = 0
    notes: list = field(default_factory=list)
    validation: ValidationReport | None = None
    stage_ms: dict = field(default_factory=dict)   # stage -> elapsed ms


@contextmanager
def _stage(report: ReconstructionReport, name: str):
    t0 = time.perf_counter()
    try:
        yield
    finally:
        report.stage_ms[name] = 1e3 * (time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# Stage 1: materialize drafts
# ---------------------------------------------------------------------------

def materialize_half_edges(records: VertexRecordSet, cfg: SamplingConfig | None = None):
    """Build twin half-edge drafts from parsed records.

    The interior curve samples of the two directed copies of each edge are
    averaged (one reversed) so twins carry identical geometry; endpoints
    are pinned to the dequantized vertex positions.  The RMS of half the
    copies' difference, over all edges, is the model's RQ noise.
    Returns (drafts, vertex positions).
    """
    cfg = cfg or SamplingConfig()
    comps = records.components
    if any(c.descriptors is None for c in comps):
        raise ValueError("records carry no decoded descriptors; parse with a codebook first")
    verts = np.concatenate([c.positions for c in comps] or [np.zeros((0, 3))])
    offsets = np.cumsum([0] + [c.positions.shape[0] for c in comps]).tolist()
    origin = np.array([v + off for c, off in zip(comps, offsets) for e in c.edges for v in e],
                      dtype=int)
    hp, nxt, label = unpack_descriptor(np.concatenate(
        [c.descriptors for c in comps] or [np.zeros((0, cfg.descriptor_length))]), cfg)
    ij, ji = hp[0::2, :, 0, :], hp[1::2, ::-1, 0, :]
    fwd = np.concatenate([verts[origin[0::2], None], 0.5 * (ij + ji), verts[origin[1::2], None]],
                         axis=1)
    curve = np.empty((len(origin), cfg.n_curve + 2, 3))
    curve[0::2], curve[1::2] = fwd, fwd[:, ::-1]
    noise = float(np.sqrt(np.mean(np.square(0.5 * (ij - ji))))) if len(ij) else 0.0
    return Drafts(origin, curve, hp[:, :, 1:, :], nxt, label, noise), verts


# ---------------------------------------------------------------------------
# Stage 2: successor assignment per vertex
# ---------------------------------------------------------------------------

# A vertex, its incoming and outgoing draft ids, and (degree, degree) costs and
# forbidden flags (the outgoing draft is the incoming one's twin), incoming-major.
Star = namedtuple("Star", "vertex incoming outgoing cost forbidden")


@dataclass(eq=False)
class Stars:
    """Priced vertex stars, ascending by vertex, as flat arrays.  Star ``s``
    holds rows ``start[s]`` on of ``incoming`` and ``outgoing`` and its
    ``degree[s]**2`` pairs, incoming-major, from ``first[s]`` on of ``cost``
    and ``forbidden``; ``stars[s]``, and iteration, give `Star`s."""
    vertex: np.ndarray         # (S,)
    degree: np.ndarray         # (S,)
    start: np.ndarray          # (S,)
    first: np.ndarray          # (S,)
    incoming: np.ndarray       # (R,) draft ids
    outgoing: np.ndarray       # (R,)
    cost: np.ndarray           # (P,)
    forbidden: np.ndarray      # (P,)

    def __getitem__(self, s) -> Star:
        k, r, p = self.degree[s], self.start[s], self.first[s]
        return Star(int(self.vertex[s]), self.incoming[r: r + k].tolist(),
                    self.outgoing[r: r + k].tolist(), self.cost[p: p + k * k].reshape(k, k),
                    self.forbidden[p: p + k * k].reshape(k, k))


def _offsets(sizes: np.ndarray):
    """(owner, index within owner) of every item of consecutive groups of ``sizes``."""
    owner = np.repeat(np.arange(len(sizes)), sizes)
    return owner, np.arange(len(owner)) - (np.cumsum(sizes) - sizes)[owner]


def star_problems(drafts, n_next: int, n_vertices: int | None = None) -> Stars:
    """The `Stars` of every vertex (below ``n_vertices``, if given) with an
    incoming draft, every pair priced in one pass: the summed distance of the
    incoming draft's ``next`` samples to the outgoing draft's first ``n_next``
    on-curve samples.

    A vertex's outgoing drafts start at it and its incoming ones end at it,
    each in ascending draft order: two stable argsorts, of the origins and of
    the destinations.  A draft's twin is a draft, so the two counts agree."""
    origin = drafts.origin
    vertex, degree = np.unique(origin, return_counts=True)
    if n_vertices is not None:
        keep = vertex < n_vertices
        vertex, degree = vertex[keep], degree[keep]
    rows = degree.sum()                 # the kept vertices' drafts sort first
    outgoing = np.argsort(origin, kind="stable")[:rows]
    incoming = np.argsort(origin[np.arange(len(origin)) ^ 1], kind="stable")[:rows]
    start, first = np.cumsum(degree) - degree, np.cumsum(degree**2) - degree**2
    owner, pair = _offsets(degree**2)
    a, b = np.divmod(pair, degree[owner])
    ins, outs = incoming[start[owner] + a], outgoing[start[owner] + b]
    cost = np.linalg.norm(drafts.next[ins] - drafts.curve[outs, 1: 1 + n_next], axis=2).sum(axis=1)
    return Stars(vertex, degree, start, first, incoming, outgoing, cost, (ins ^ 1) == outs)


# Stars of up to this degree are matched together, over all permutations.
_SMALL_STAR = 4
_PERMUTATIONS = np.array(list(permutations(range(_SMALL_STAR))))
# The two best totals of a star are a near tie within this fraction of its
# largest cost: scipy's rounding could pick either, so scipy picks.
_NEAR_TIE = 1e-9


def _match_small_stars(stars: Stars):
    """(cost, infeasible flag) of every star and the column of every row, by
    one pass over all permutations of the stars of degree <= ``_SMALL_STAR``.

    Costs are padded: a pad row takes its own pad column at cost 0.0, all
    else padded is forbidden.  Totals add the rows in order like
    `solve_square`'s (adding 0.0 changes no bit); the twin-masked ones decide
    unless none is finite.  A star with a non-finite cost, a near tie or a
    higher degree is left to `solve_square`, with cost NaN.
    """
    n = _SMALL_STAR
    small = np.flatnonzero(stars.degree <= n)
    k = stars.degree[small]
    owner, pair = _offsets(k * k)
    a, b = np.divmod(pair, k[owner])
    pair += stars.first[small][owner]
    real = np.arange(n) < k[:, None]
    cost = np.full((2, len(small), n, n), np.inf)     # twin-masked, then not
    cost[:, :, np.arange(n), np.arange(n)] = np.where(real, np.inf, 0.0)
    cost[:, owner, a, b] = stars.cost[pair]
    banned = stars.forbidden[pair]
    cost[0, owner[banned], a[banned], b[banned]] = np.inf
    masked, unmasked = sum(cost[..., row, _PERMUTATIONS[:, row]] for row in range(n))

    twins = ~np.isfinite(masked.min(axis=1))
    totals = np.where(twins[:, None], unmasked, masked)
    low, second = np.partition(totals, 1, axis=1)[:, :2].T
    entries = np.where(real[:, :, None] & real[:, None, :], cost[1], 0.0)
    with np.errstate(invalid="ignore"):       # inf - inf where a cost is infinite
        settled = np.isfinite(entries).all(axis=(1, 2)) \
            & (second - low > _NEAR_TIE * entries.max(axis=(1, 2)))
    star_cost, infeasible = np.full(len(stars.vertex), np.nan), np.zeros(len(stars.vertex), bool)
    star_cost[small[settled]], infeasible[small[settled]] = low[settled], twins[settled]
    column = np.zeros(len(stars.incoming), dtype=int)
    owner, row = _offsets(k)
    column[stars.start[small][owner] + row] = _PERMUTATIONS[totals.argmin(axis=1)][owner, row]
    return star_cost, infeasible, column


def solve_next_map(drafts, n_vertices: int, cfg: SamplingConfig):
    """The successor of every incoming draft by a min-cost matching at each
    vertex star, twins forbidden unless that leaves no matching: (next map,
    total cost in ascending vertex order, infeasible vertices, vertices
    costing more than ``ELEVATED_COST``)."""
    stars = star_problems(drafts, cfg.n_next, n_vertices)
    cost, infeasible, column = _match_small_stars(stars)
    for s in np.flatnonzero(np.isnan(cost)).tolist():
        star, rows = stars[s], stars.start[s] + np.arange(stars.degree[s])
        try:
            column[rows], cost[s] = solve_square(np.where(star.forbidden, np.inf, star.cost))
        except InfeasibleAssignmentError:
            column[rows], cost[s] = solve_square(star.cost)
            infeasible[s] = True
    total = float(np.cumsum(np.append(0.0, cost))[-1])    # added in sequence from 0.0
    chosen = stars.outgoing[np.repeat(stars.start, stars.degree) + column]
    next_map = dict(zip(stars.incoming.tolist(), chosen.tolist()))
    return (next_map, total, stars.vertex[infeasible].tolist(),
            stars.vertex[cost > ELEVATED_COST].tolist())


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
        votes = drafts.label[loop.drafts].sum()
        loop.kind = "outer" if 2 * votes >= len(loop.drafts) else "inner"


# ---------------------------------------------------------------------------
# Projection onto a fitted surface
# ---------------------------------------------------------------------------

# The nodes of the probe grid, (UV_PROBE_GRID**2, 2), u-major, and their
# 16-term tensor Bernstein bases, (UV_PROBE_GRID**2, 16).
_PROBE_UV = np.stack([a.ravel() for a in np.meshgrid(
    np.linspace(0.0, 1.0, UV_PROBE_GRID), np.linspace(0.0, 1.0, UV_PROBE_GRID),
    indexing="ij")], axis=-1)
_PROBE_BASIS = _tensor_basis(_bernstein3(_PROBE_UV[:, 0]), _bernstein3(_PROBE_UV[:, 1]))
# Relative width of the band of nodes `_project` settles exactly: about 9,000
# units in the last place, over 20 times what rounding can part two scores.
_PROJECT_MARGIN = 1e-12


def _project(points: np.ndarray, surface) -> np.ndarray:
    """Parameters (N, 2) of the points of ``surface`` nearest ``points`` (N, 3).

    A Plane inverts exactly and unclipped; a bicubic patch (the only other
    surface ``fit_faces`` builds) takes the node of the ``UV_PROBE_GRID`` x
    ``UV_PROBE_GRID`` grid over [0, 1]^2 whose probe ``surface.point``
    minimizes ``sum((p_c - probe_c) ** 2)``, the lowest node on ties.

    The search runs ``PROJECT_BLOCK`` points at a time.  One BLAS product
    scores every node by ``|q|^2 - 2 p.q``, over approximate probes ``q``
    (the basis times the control points, also by BLAS).  A point takes its
    best-scoring node when no other node scores within the margin
    ``_PROJECT_MARGIN * (|p|^2 + M^2)``, M the longest control point;
    otherwise the nodes within it get exact probes and exact distances, and
    the least wins.  A probe is a convex combination of control points, so
    rounding parts a score plus ``|p|^2`` from the exact distance by under
    200 units in the last place of ``|p|^2 + M^2``, and the nearest node
    always lies in the band.  Points of NaN, infinite or near-overflow scale
    search every node.
    """
    if isinstance(surface, Plane):
        return surface.uv_of_point(points)
    with np.errstate(over="ignore", invalid="ignore"):    # non-finite points search all nodes
        return _PROBE_UV[_nearest_nodes(points, surface)]


def _nearest_nodes(points, surface):
    """`_project`'s search on a bicubic patch: each point's row of ``_PROBE_UV``."""
    control = surface.control.reshape(16, 3)
    lead = np.empty((4, len(_PROBE_UV)))      # -2 q and |q|^2, against (p, 1)
    lead[:3] = control.T @ _PROBE_BASIS.T
    lead[3] = np.square(lead[:3]).sum(axis=0)
    lead[:3] *= -2.0
    reach = np.square(control).sum(axis=1).max()
    lifted = np.ones((len(points), 4))
    lifted[:, :3] = points
    nearest = np.empty(len(points), dtype=np.intp)
    for i in range(0, len(points), PROJECT_BLOCK):
        block = points[i: i + PROJECT_BLOCK]
        rows = np.arange(len(block))
        score = lifted[i: i + PROJECT_BLOCK] @ lead
        scale = np.square(block).sum(axis=1) + reach
        pick = score.argmin(axis=1)
        # 1e-300 covers the rounding of subnormal scores
        bound = score[rows, pick] + _PROJECT_MARGIN * scale + 1e-300
        score[rows, pick] = np.inf                    # the runner-up decides
        wide = ~(scale < 1e300)                       # NaN, infinite or near overflow
        tied = np.flatnonzero((score.min(axis=1) <= bound) | wide)
        if tied.size:
            score[tied, pick[tied]] = -np.inf
            near = (score[tied] <= bound[tied, None]) | wide[tied, None]
            row, node = np.nonzero(near)
            exact = surface.blend(_PROBE_BASIS[node])
            d = np.full(near.shape, np.inf)
            # x, y, z in turn: the same sums as ((p - exact) ** 2).sum(axis=-1)
            d[row, node] = sum((block[tied[row], c] - exact[:, c]) ** 2 for c in range(3))
            pick[tied] = d.argmin(axis=1)
        nearest[i: i + len(block)] = pick
    return nearest


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
    """Coons-initialized bicubic least squares with boundary weighting.

    None when the samples under-determine the 16 control points.
    """
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

    # boundary UVs follow the side parameterization; interior UVs are the
    # samples projected onto the Coons patch
    side_point_uvs = [_SIDE_UV[k](_side_params(side)) for k, side in enumerate(sides)]
    bnd_pts = np.concatenate([side[:-1] for side in sides])
    pts = np.vstack([bnd_pts, interior])
    uvs = np.vstack([uv[:-1] for uv in side_point_uvs] + [_project(interior, coons)])
    w = np.concatenate([np.full(len(bnd_pts), BOUNDARY_WEIGHT),
                        np.ones(len(uvs) - len(bnd_pts))])
    if pts.shape[0] < 16:
        return None

    aw = _tensor_basis(_bernstein3(uvs[:, 0]), _bernstein3(uvs[:, 1])) * w[:, None]
    sol, *_ = np.linalg.lstsq(aw, pts * w[:, None], rcond=None)
    patch = BicubicPatch(sol.reshape(4, 4, 3))
    rms = float(np.sqrt(np.mean(
        np.linalg.norm(patch.point(uvs[:, 0], uvs[:, 1]) - pts, axis=1) ** 2)))

    # per-draft pcurves from the boundary UV assignment
    if one_side_per_draft:
        runs_uv = np.concatenate(side_point_uvs)
        steps = np.array([len(uv) - 1 for uv in side_point_uvs])
    else:
        flat_uv = np.concatenate([uv[:-1] for uv in side_point_uvs])
        steps = np.array([len(run) - 1 for run in runs])
        start = np.cumsum(steps) - steps
        runs_uv = flat_uv[np.concatenate([s + np.arange(n + 1) for s, n in zip(start, steps)])
                          % len(flat_uv)]
    pcurves = dict(zip(loop_ids, _point_runs(Poly2, runs_uv, steps)))
    return FittedFace(surface=patch, pcurves=pcurves, rms=rms, planar=False)


def _point_runs(cls, points, steps) -> list:
    """``cls`` objects (`PolylineCurve` or `Poly2`) of the point runs stored
    back to back in ``points``, run k ``steps[k]`` segments long."""
    steps = np.asarray(steps)
    return _build(cls, [points, np.cumsum(steps + 1) - steps - 1, steps])


def _polylines(cls, runs) -> list:
    """``cls`` objects, one per row of ``runs`` (K, M, d)."""
    return _point_runs(cls, runs.reshape(-1, runs.shape[-1]),
                       np.full(len(runs), runs.shape[1] - 1))


def plane_gate(noise):
    """Largest plane residual ``fit_faces`` takes for noise: ``PLANE_GATE``
    times the quadrature sum of vertex rounding and the RQ noise ``noise``."""
    return PLANE_GATE * np.hypot(VERTEX_BIN_RMS, noise)


def _loop_planes(loops, drafts):
    """Least-squares planes of all loops' samples: (RMS residuals, `Plane`s,
    every draft's curve samples in its plane's UV, drafts in loop order).

    The normal is the scatter matrix's least eigenvector; the frame follows
    `frame_for_normal` with a 5% pad, and the v axis flips so that each
    loop winds counter-clockwise in UV.
    """
    order = [d for loop in loops for d in loop.drafts]
    sizes = np.array([len(loop.drafts) for loop in loops])
    starts = np.cumsum(sizes) - sizes
    owner = np.repeat(np.arange(len(loops)), sizes)
    curve = drafts.curve[order]
    pts = np.concatenate([curve, drafts.surface[order].reshape(len(order), -1, 3)], axis=1)
    count = sizes * pts.shape[1]

    centroid = np.add.reduceat(pts.sum(axis=1), starts) / count[:, None]
    centred = pts - centroid[owner, None, :]
    scatter = np.add.reduceat(centred.transpose(0, 2, 1) @ centred, starts)
    normal = np.linalg.eigh(scatter)[1][:, :, 0]

    u, v = frame_for_normal(normal)

    # s, t and the residual of every sample, in the loop's (U, V, n) frame
    stn = centred @ np.stack([u, v, normal], axis=2)[owner]
    rms = np.sqrt(np.add.reduceat(np.square(stn[..., 2]).sum(axis=1), starts) / count)
    st = stn[..., :2].reshape(-1, 2)          # a contiguous copy: one row per sample
    lo = np.minimum.reduceat(st, starts * pts.shape[1])
    extent = np.maximum.reduceat(st, starts * pts.shape[1]) - lo
    pad = 0.05 * np.maximum(extent.max(axis=1), 1e-9)
    lo -= pad[:, None]
    span = extent + 2.0 * pad[:, None]
    uv = (stn[:, : curve.shape[1], :2] - lo[owner, None, :]) / span[owner, None, :]

    # twice the signed UV area: a shoelace sum over every draft's segments,
    # since consecutive drafts share their endpoints
    x, y = uv[..., 0], uv[..., 1]
    cross = (x[:, :-1] * y[:, 1:] - x[:, 1:] * y[:, :-1]).sum(axis=1)
    flip = np.add.reduceat(cross, starts) < 0
    origin = centroid + lo[:, :1] * u + lo[:, 1:] * v
    origin[flip] += span[flip, 1:] * v[flip]
    v_axis = np.where(flip[:, None], -1.0, 1.0) * span[:, 1:] * v
    uv[flip[owner], :, 1] = 1.0 - uv[flip[owner], :, 1]
    return rms, _build(Plane, [origin, span[:, :1] * u, v_axis]), uv


def fit_faces(loops, drafts) -> list:
    """A `FittedFace` for every loop: planes in one pass, bicubics one by one.

    A loop keeps its plane when the plane's residual is within `plane_gate`;
    otherwise a bicubic is fitted and kept only if its residual is lower.
    """
    if not loops:
        return []
    rms, planes, uv = _loop_planes(loops, drafts)
    gate = plane_gate(drafts.noise)
    faces, notes = [], []
    for i, loop in enumerate(loops):
        fitted, note = None, []
        if rms[i] > gate:
            fitted = _bicubic_face(loop.drafts, drafts.curve[loop.drafts],
                                   drafts.surface[loop.drafts].reshape(-1, 3))
            if fitted is None or fitted.rms > rms[i]:
                note = (["bicubic fit under-determined"] if fitted is None else []) \
                    + ["bicubic fit rejected; plane kept"]
                fitted = None
        faces.append(fitted)
        notes.append(note)
    # the pcurves of every loop that keeps its plane, in one pass
    keep = np.repeat([f is None for f in faces], [len(loop.drafts) for loop in loops])
    pcurves = iter(_polylines(Poly2, uv[keep]))
    for i, loop in enumerate(loops):
        if faces[i] is None:
            faces[i] = FittedFace(surface=planes[i], rms=float(rms[i]), planar=True,
                                  pcurves=dict(zip(loop.drafts,
                                                   islice(pcurves, len(loop.drafts)))),
                                  notes=notes[i])
    return faces


def fit_face(loop: LoopDraft, drafts) -> FittedFace:
    """`fit_faces` of one loop."""
    return fit_faces([loop], drafts)[0]


# ---------------------------------------------------------------------------
# Stage 5: inner-loop attachment
# ---------------------------------------------------------------------------

def attach_inner_loops(inner_loops, faces, drafts):
    """Assign each inner loop to the face minimizing mean sample distance.

    Samples project onto their nearest point of each face, clipped to the
    patch: one pass per loop for all planar faces, one `_project` call per
    bicubic face for all loops.  Returns face indices aligned with
    ``inner_loops``.
    """
    if not inner_loops:
        return []
    if not faces:
        raise ValueError("cannot attach inner loops: no faces were built")
    samples = [drafts.curve[loop.drafts, :-1].reshape(-1, 3) for loop in inner_loops]
    sizes = np.array([len(p) for p in samples])
    means = np.empty((len(inner_loops), len(faces)))
    planar = [k for k, f in enumerate(faces) if isinstance(f.surface, Plane)]
    curved = [k for k, f in enumerate(faces) if not isinstance(f.surface, Plane)]
    every = np.concatenate(samples)
    for k in curved:
        uv = np.clip(_project(every, faces[k].surface), 0.0, 1.0)
        dist = np.linalg.norm(every - faces[k].surface.point(uv[:, 0], uv[:, 1]), axis=1)
        means[:, k] = np.add.reduceat(dist, np.cumsum(sizes) - sizes) / sizes
    origin = np.array([faces[k].surface.origin for k in planar]).reshape(-1, 1, 3)
    axes = np.array([[faces[k].surface.u_vec, faces[k].surface.v_vec]
                     for k in planar]).reshape(-1, 2, 3)
    gram = (axes @ axes.transpose(0, 2, 1))[:, None]
    for i, pts in enumerate(samples):
        rhs = (pts - origin) @ axes.transpose(0, 2, 1)
        uv = np.clip(np.linalg.solve(gram, rhs[..., None])[..., 0], 0.0, 1.0)
        means[i, planar] = np.linalg.norm(pts - (origin + uv @ axes), axis=2).mean(axis=1)
    return means.argmin(axis=1).tolist()


# ---------------------------------------------------------------------------
# Full pipeline
# ---------------------------------------------------------------------------

def reconstruct(records: VertexRecordSet, cfg: SamplingConfig | None = None):
    """Records -> (BrepModel | None, ReconstructionReport); ``cfg`` is the encoder's."""
    cfg = cfg or SamplingConfig()
    report = ReconstructionReport()
    try:
        with _stage(report, "materialize"):
            drafts, verts = materialize_half_edges(records, cfg)
    except Exception as exc:
        report.notes.append(f"materialization failed: {exc}")
        return None, report
    if not drafts.origin.size:
        report.notes.append("no edges to reconstruct")
        return None, report

    try:
        with _stage(report, "next_map"):
            next_map, *outcome = solve_next_map(drafts, verts.shape[0], cfg)
        (report.total_assignment_cost, report.infeasible_vertices,
         report.elevated_cost_vertices) = outcome

        with _stage(report, "loops"):
            loops = trace_loops(next_map)
            classify_loops(loops, drafts)
        report.loop_count = len(loops)
        outer = [l for l in loops if l.kind == "outer"]
        inner = [l for l in loops if l.kind == "inner"]

        with _stage(report, "fit"):
            faces = fit_faces(outer, drafts)
        report.faces_built = len(faces)
        report.planar_faces = sum(f.planar for f in faces)
        report.bicubic_faces = len(faces) - report.planar_faces
        # fit_faces notes a planar face only when it refused the face's bicubic
        report.bicubic_rejected = sum(f.planar and bool(f.notes) for f in faces)
        report.notes.extend(note for f in faces for note in f.notes)

        with _stage(report, "attach"):
            attach = attach_inner_loops(inner, faces, drafts)
        report.inner_loops_attached = len(attach)
    except Exception as exc:
        report.notes.append(f"reconstruction failed: {exc}")
        return None, report

    try:
        with _stage(report, "assemble"):
            model = _assemble(drafts, verts, outer, inner, faces, attach)
    except Exception as exc:
        report.notes.append(f"assembly failed: {exc}")
        return None, report

    with _stage(report, "validate"):
        report.validation = validate(model)
    report.success = report.validation.watertight
    if not report.success:
        report.notes.append("result is not watertight")
    return model, report


def _assemble(drafts, verts, outer, inner, faces, attach):
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
            curve = drafts.curve[il.drafts]     # the loop's pcurves from one projection
            uv = _project(curve.reshape(-1, 3), fitted.surface).reshape(curve.shape[:2] + (2,))
            pcurve_of.update(zip(il.drafts, _polylines(Poly2, uv)))
        face_objs.append(Face(surface=fitted.surface, outer=outer_id,
                              inners=tuple(inner_ids)))

    loop_of_draft = {d: li for li, (loop, _, _) in enumerate(ordered_loops) for d in loop.drafts}
    loop_objs = [Loop(halfedges=tuple(loop.drafts), kind=kind, face=fi)
                 for loop, kind, fi in ordered_loops]

    origin = drafts.origin.tolist()
    halfedges = [HalfEdge(origin=v, twin=d ^ 1, edge=d // 2, loop=loop_of_draft.get(d, -1),
                          forward=(d % 2 == 0), pcurve=pcurve_of.get(d))
                 for d, v in enumerate(origin)]
    curves = _polylines(PolylineCurve, drafts.curve[0::2])
    edges = [Edge(curve=c, v0=origin[d], v1=origin[d + 1], halfedges=(d, d + 1))
             for c, d in zip(curves, range(0, len(origin), 2))]

    return BrepModel(vertices=verts, edges=edges, halfedges=halfedges,
                     loops=loop_objs, faces=face_objs)
