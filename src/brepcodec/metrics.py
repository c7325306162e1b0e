"""Distribution and CAD metrics over model sets, plus curve-error checks.

Conventions fixed here: Chamfer distance is the symmetric mean of squared
nearest-neighbor distances (average of the two directions); the JSD
voxel grid is 28^3 with base-2 logarithms, so 1 bit is the maximum.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .model import BrepModel, validate
from .sampler import UV_GRID, FaceCharts

JSD_DEFAULT_RESOLUTION = 28
POINTS_PER_CLOUD = 2000


@dataclass
class MetricReport:
    coverage: float = float("nan")
    mmd: float = float("nan")
    jsd: float = float("nan")
    novel: float = float("nan")
    unique: float = float("nan")
    valid: float = float("nan")
    n_generated: int = 0
    n_reference: int = 0
    points_per_cloud: int = POINTS_PER_CLOUD
    voxel_resolution: int = JSD_DEFAULT_RESOLUTION
    seed: int = 0
    notes: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# Surface sampling
# ---------------------------------------------------------------------------

JITTER_REDRAWS = 16   # redraws of a jitter that leaves the trim, then the cell centre


def surface_sample(model: BrepModel, n: int = POINTS_PER_CLOUD, seed: int = 0) -> np.ndarray:
    """Area-weighted uniform surface sampling -> (n, 3) points, deterministic per seed.

    Each face's in-trim cells of the ``FaceCharts.cell_grid`` are weighted
    by area; a sample jitters uniformly within its cell and stays in trim.
    """
    charts = FaceCharts(model)
    cells = []
    for f, surf in enumerate(charts.surfaces):
        u0, u1, v0, v1 = charts.domains[f]
        step = np.array([(u1 - u0) / UV_GRID, (v1 - v0) / UV_GRID])
        uv, inside = charts.cell_grid(f)
        uv = uv[inside]
        if uv.size:
            pu, pv = surf.partials(uv[:, 0], uv[:, 1])
            area = np.linalg.norm(np.cross(pu, pv), axis=-1) * step[0] * step[1]
            cells.append((f, uv, area, step))
    total = sum(c[2].sum() for c in cells)
    if total <= 0:
        raise ValueError("model has zero total surface area")

    rng = np.random.default_rng(seed)
    redraw = rng.spawn(1)[0]
    weights = np.concatenate([c[2] for c in cells]) / total
    counts = rng.multinomial(n, weights)
    pts = np.empty((n, 3))
    out = 0
    offset = 0
    for f, uv, area, step in cells:
        take = counts[offset: offset + area.size]
        offset += area.size
        m = int(take.sum())
        if m == 0:
            continue
        idx = np.repeat(np.arange(area.size), take)
        # a cell straddling the trim boundary must not jitter off the face;
        # redraws come from their own stream, so in-trim samples keep theirs
        suv = uv[idx] + rng.uniform(-0.5, 0.5, (m, 2)) * step
        off = ~charts.in_trim_uv(suv, f)
        for _ in range(JITTER_REDRAWS):
            if not off.any():
                break
            suv[off] = uv[idx[off]] + redraw.uniform(-0.5, 0.5, (int(off.sum()), 2)) * step
            off[off] = ~charts.in_trim_uv(suv[off], f)
        suv[off] = uv[idx[off]]
        pts[out: out + m] = charts.surfaces[f].point(suv[:, 0], suv[:, 1])
        out += m
    return pts[:out]


# ---------------------------------------------------------------------------
# Set-level metrics
# ---------------------------------------------------------------------------

def chamfer(a: np.ndarray, b: np.ndarray) -> float:
    """Symmetric mean squared nearest-neighbor distance between (n, 3) clouds."""
    pa = np.asarray(a, dtype=float)
    pb = np.asarray(b, dtype=float)
    if pa.shape[0] == 0 or pb.shape[0] == 0:
        raise ValueError("point clouds must be non-empty")
    d_ab, _ = cKDTree(pb).query(pa)
    d_ba, _ = cKDTree(pa).query(pb)
    return 0.5 * (float(np.mean(d_ab**2)) + float(np.mean(d_ba**2)))


def cov_mmd(gen, ref):
    """Coverage and minimum matching distance between cloud sets.

    Coverage counts references matched as some generated cloud's nearest
    reference; MMD averages each reference's distance to its closest
    generated cloud.
    """
    if not gen or not ref:
        raise ValueError("cloud sets must be non-empty")
    table = np.array([[chamfer(g, r) for r in ref] for g in gen])
    covered = set(int(i) for i in table.argmin(axis=1))
    coverage = len(covered) / len(ref)
    mmd = float(table.min(axis=0).mean())
    return coverage, mmd


def _occupancy(clouds, resolution: int) -> np.ndarray:
    hist = np.zeros(resolution**3)
    for c in clouds:
        p = np.asarray(c, dtype=float)
        idx = np.clip((p * resolution).astype(int), 0, resolution - 1)
        flat = (idx[:, 0] * resolution + idx[:, 1]) * resolution + idx[:, 2]
        hist += np.bincount(flat, minlength=resolution**3)
    total = hist.sum()
    return hist / total if total > 0 else hist


def jsd(gen, ref, resolution: int = JSD_DEFAULT_RESOLUTION) -> float:
    """Jensen-Shannon divergence (bits) between mean voxel occupancies.

    Clouds must be normalized into the unit box.
    """
    p = _occupancy(gen, resolution)
    q = _occupancy(ref, resolution)
    m = 0.5 * (p + q)

    def kl(a, b):
        mask = a > 0
        return float(np.sum(a[mask] * np.log2(a[mask] / b[mask])))

    return 0.5 * kl(p, m) + 0.5 * kl(q, m)


def novel_unique_valid(gen_models, train_keys, canonical_key=None):
    """Novel / Unique / Valid over generated models.

    ``canonical_key`` maps a model to a hashable duplicate-detection key
    (canonical token tuple); models it rejects count as distinct.
    ``train_keys`` is the set of training keys for novelty.
    """
    if not gen_models:
        raise ValueError("no generated models")
    train_set = set(train_keys)
    keys = []
    for i, m in enumerate(gen_models):
        key = None
        if canonical_key is not None:
            try:
                key = canonical_key(m)
            except Exception:
                key = ("unkeyed", i)
        keys.append(key if key is not None else ("unkeyed", i))
    novel = sum(1 for k in keys if k not in train_set) / len(keys)
    unique = len(set(keys)) / len(keys)
    valid = sum(1 for m in gen_models if validate(m).watertight) / len(gen_models)
    return novel, unique, valid


# ---------------------------------------------------------------------------
# Curve discretization error
# ---------------------------------------------------------------------------

def _polyline_deviation(curve, n_samples: int, n_probes: int) -> float:
    """Mean distance between the chord interpolant and the true curve."""
    knots = np.linspace(0.0, 1.0, n_samples)
    pts = curve.point(knots)
    probes = np.linspace(0.0, 1.0, n_probes)
    seg = np.clip((probes * (n_samples - 1)).astype(int), 0, n_samples - 2)
    frac = probes * (n_samples - 1) - seg
    interp = pts[seg] + frac[:, None] * (pts[seg + 1] - pts[seg])
    return float(np.mean(np.linalg.norm(interp - curve.point(probes), axis=-1)))


@dataclass
class CurveErrorReport:
    mean_deviation: float          # at samples_per_curve points
    chordal_mesh_deviation: float  # 32-segment companion
    curves: int = 0


def curve_error(model: BrepModel, samples_per_curve: int = 100,
                probes: int = 1000, mesh_segments: int = 32) -> CurveErrorReport:
    """Discretization error of curve sampling vs. a coarse chordal mesh."""
    fine = []
    coarse = []
    for e in model.edges:
        fine.append(_polyline_deviation(e.curve, samples_per_curve, probes))
        coarse.append(_polyline_deviation(e.curve, mesh_segments + 1, probes))
    return CurveErrorReport(mean_deviation=float(np.mean(fine)),
                            chordal_mesh_deviation=float(np.mean(coarse)),
                            curves=len(fine))
