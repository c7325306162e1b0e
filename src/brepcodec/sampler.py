"""Voronoi half-patch extraction.

`extract_vhp` returns one descriptor matrix per model, of shape
``(2E, SamplingConfig.descriptor_length)``; row ``h`` is half-edge ``h``.
Each row holds ``(N_c * N_s + N_n) * 3 + 1`` scalars (85 at the defaults),
in the order `_pack` writes and `unpack_descriptor` reads, both over any
leading batch dimensions; this module is the one home of that layout:

* an ``(N_c, N_s, 3)`` half-patch, row-major: N_c interior curve samples
  (column 0) plus ``N_s - 1`` surface samples per row, marched from the
  curve into the face interior along the in-plane UV normal until the walk
  leaves the half-edge's Voronoi cell or the trimmed region;
* the ``N_n`` on-curve samples of the successor half-edge nearest the
  shared vertex, in increasing-arclength order;
* a binary inner/outer label taken from the owning loop (1 outer, 0 inner).

Distances for the Voronoi partition are measured in each face's parameter
rectangle after rescaling both axes to a common arclength-based unit, so
unlike parameter units (radians vs. axial lengths) compare fairly.

A ray from an owner of one chord (``Segment2``), or alone on its face, exits
its cell in closed form, one array pass for all; the walk stops one former
bisection width (diagonal / 2**15) short, so the last sample stays inside.
Other rays (a decoded model's ``Poly2`` half-edges beside others) march
``UV_GRID // 2`` (32) steps out to the face's normalized diagonal and bisect
the first failing one 10 times; the tests take the march as the reference.

All faces of a model share one walk.  ``FaceCharts`` packs every face's
boundary chords and trim polygons into flat tables, and one kernel runs the
even-odd trim test and the "nearest half-edge is my owner" test over ragged
(point x same-face chord) pairs.  It builds the tables in array passes, with
no loop over faces: from the loop table (every face's loops, outer first, as
one array of half-edge ids in traversal order, which also gives each
half-edge's successor and label), and from `geometry`'s batched evaluators,
one pass per surface, curve or pcurve kind, which give the same bits as each
object's own method.  The same chart gives each face's
``UV_GRID`` x ``UV_GRID`` cell grid, which ``voronoi_assign`` labels and
``metrics.surface_sample`` weights by area.
"""
from __future__ import annotations

import math
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .geometry import (GeometryError, Poly2, Segment2, pcurve_points, surface_midpoint_norms,
                       surface_points)
from .model import BrepModel, ModelError, halfedge_curve_samples, validate


# Voronoi grid resolution per axis; the walk marches UV_GRID // 2 steps.
UV_GRID = 64
# Polyline resolution of a curved pcurve, for parametric distances.
PCURVE_SAMPLES = 33


class ZeroDepthWarning(UserWarning):
    """A half-patch walk had zero depth; samples collapsed onto the curve."""


@dataclass
class SamplingConfig:
    n_curve: int = 6          # curve samples per half-edge
    n_surface: int = 4        # samples per row, column 0 on the curve
    n_next: int = 4           # successor samples stored per record

    def __post_init__(self):
        if self.n_curve < 1 or self.n_surface < 1:
            raise ValueError("sample counts must be >= 1")
        if self.n_next > self.n_curve:
            raise ValueError("n_next cannot exceed n_curve")

    @property
    def descriptor_length(self) -> int:
        return (self.n_curve * self.n_surface + self.n_next) * 3 + 1


def _pack(half_patch, next_samples, label) -> np.ndarray:
    """The record layout: half-patch row-major, next samples, then label.

    Leading dimensions are batch dimensions: ``half_patch`` (..., N_c, N_s, 3),
    ``next_samples`` (..., N_n, 3) and ``label`` (...) give rows (..., dim).
    """
    hp, nxt = np.asarray(half_patch, dtype=float), np.asarray(next_samples, dtype=float)
    lead = hp.shape[:-3]
    return np.concatenate([hp.reshape(*lead, math.prod(hp.shape[-3:])),
                           nxt.reshape(*lead, math.prod(nxt.shape[-2:])),
                           np.reshape(label, (*lead, 1)).astype(float)], axis=-1)


def unpack_descriptor(desc: np.ndarray, cfg: SamplingConfig):
    """Rows (..., dim) -> half-patches (..., N_c, N_s, 3), next samples
    (..., N_n, 3) and int labels (...): leading dimensions batch, as in `_pack`."""
    desc = np.asarray(desc, dtype=float)
    if desc.shape[-1] != cfg.descriptor_length:
        raise ValueError(f"descriptor length {desc.shape[-1]} != configured {cfg.descriptor_length}")
    lead, split = desc.shape[:-1], cfg.n_curve * cfg.n_surface * 3
    return (desc[..., :split].reshape(*lead, cfg.n_curve, cfg.n_surface, 3),
            desc[..., split:-1].reshape(*lead, cfg.n_next, 3), (desc[..., -1] >= 0.5).astype(int))


# ---------------------------------------------------------------------------
# Face charts: normalized UV metric, boundary chords, trim polygons
# ---------------------------------------------------------------------------

_MARCH_CHUNK = 8        # march steps tested per round; failed rays then drop out
_PAIR_BLOCK = 1 << 13   # (point, chord) pairs per kernel block; larger blocks
                        # leave more transient heap behind (resident set)
_BISECTIONS = 10        # march refinement; its final bracket, diagonal / 2**15,
                        # is also how far the closed-form walk stops short


@contextmanager
def _face_errors(face: int):
    """Re-raise any failure as a GeometryError naming the face."""
    try:
        yield
    except Exception as exc:
        raise GeometryError(f"sampling failed on face {face}: {exc}") from exc


def _naming_faces(batch, faces, one):
    """``batch()``; should it fail, ``one(f)`` for each of ``faces`` in turn,
    so that the error names the first face on which the work fails."""
    try:
        return batch()
    except Exception:
        for f in faces:
            with _face_errors(f):
                one(f)
        raise


def _cyclic_next(lengths) -> np.ndarray:
    """Index of each entry's successor in back-to-back cycles of ``lengths``."""
    start = np.repeat(np.cumsum(lengths) - lengths, lengths)
    i = np.arange(start.size) + 1
    return np.where(i == start + np.repeat(lengths, lengths), start, i)


def _ragged_arange(starts, counts) -> np.ndarray:
    """Concatenated ranges ``starts[i] : starts[i] + counts[i]``."""
    ends = np.cumsum(counts)
    return np.repeat(starts - (ends - counts), counts) + np.arange(ends[-1] if ends.size else 0)


def _onset(c, a):
    """Where ``c - a * t < 0`` begins, for ``a`` >= 0 up to rounding."""
    a = np.maximum(a, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(a > 0.0, c / a, np.where(c < 0.0, -np.inf, np.inf))


def _pcurve_knots(pc) -> int:
    """Number of equally spaced knots whose chords represent the pcurve.

    Straight pcurves are exact with a single chord; Poly2 breakpoints are
    exact by construction; curved pcurves fall back to ``PCURVE_SAMPLES``.
    """
    if isinstance(pc, Segment2):
        return 2
    if isinstance(pc, Poly2):
        return pc.points.shape[0]
    return PCURVE_SAMPLES


class FaceCharts:
    """Charts of every face of one model, packed into flat tables.

    Face ``k``'s bounding half-edges, in increasing id so that distance ties
    break to the lowest id, occupy half-edge table rows
    ``he_start[k]:he_start[k] + nhe[k]``.  Their pcurve polylines give the
    face's chords, grouped by half-edge in the same order, and its loops'
    closed polygons give the same number of trim edges; both sit in rows
    ``seg_start[k]:seg_start[k] + nseg[k]`` of their tables.  Queries take
    points as x and y arrays in normalized UV plus the face of every point.
    A model that `validate` finds not watertight raises ModelError.
    """

    def __init__(self, model: BrepModel):
        rep = validate(model)
        if not rep.watertight:
            raise ModelError(f"model is not watertight: {rep.defects[:3]}")
        self.model = model
        faces = model.faces
        self.surfaces = [f.surface for f in faces]

        # the loop table: each face's loops, outer first, each in traversal
        # order; `extract_vhp` takes its half-edges, successors and labels
        loop_ids = [li for f in faces for li in (f.outer, *f.inners)]
        cycles = [model.loops[li].halfedges for li in loop_ids]
        loop_len = np.array([len(c) for c in cycles], dtype=int)
        loop_face = np.repeat(np.arange(len(faces)), [1 + len(f.inners) for f in faces])
        self._loop_he = np.fromiter(chain.from_iterable(cycles), dtype=int,
                                    count=int(loop_len.sum()))
        self._loop_next = self._loop_he[_cyclic_next(loop_len)]
        self._loop_face = np.repeat(loop_face, loop_len)
        self._loop_outer = np.repeat([model.loops[li].kind == "outer" for li in loop_ids],
                                     loop_len)

        dom, norms = _naming_faces(lambda: surface_midpoint_norms(self.surfaces),
                                   range(len(faces)),
                                   lambda f: surface_midpoint_norms(self.surfaces[f:f + 1]))
        self.domains = [tuple(d) for d in dom.tolist()]
        self._u0, self._u1, self._v0, self._v1 = dom.T
        self._du, self._dv = dom[:, 1] - dom[:, 0], dom[:, 3] - dom[:, 2]
        lu, lv = norms[:, 0] * self._du, norms[:, 1] * self._dv
        lmax = np.maximum(np.maximum(lu, lv), 1e-12)
        self._su, self._sv = np.maximum(lu / lmax, 1e-9), np.maximum(lv / lmax, 1e-9)
        self._diag = np.hypot(self._su, self._sv)

        # half-edge table: face-major, increasing id within a face
        order = np.lexsort((self._loop_he, self._loop_face))
        self._he_id, self._he_face = self._loop_he[order], self._loop_face[order]
        self._nhe = np.bincount(self._loop_face, minlength=len(faces))
        self._he_start = np.cumsum(self._nhe) - self._nhe
        self._he_row = np.full(len(model.halfedges), -1)
        self._he_row[self._he_id] = np.arange(self._he_id.size)
        self._pcurves = [model.halfedges[h].pcurve for h in self._he_id.tolist()]
        missing = next((r for r, pc in enumerate(self._pcurves) if pc is None), None)
        if missing is not None:
            f, h = self._he_face[missing], self._he_id[missing]
            with _face_errors(f):
                raise GeometryError(f"halfedge {h} has no pcurve on face {f}")

        # polylines: rows off[r] : off[r] + npts[r] of pts belong to table row r
        npts = np.array([_pcurve_knots(pc) for pc in self._pcurves], dtype=int)
        off = np.cumsum(npts) - npts
        uv = np.empty((int(npts.sum()), 2))
        for n in np.unique(npts):
            rows = np.flatnonzero(npts == n)
            uv[off[rows, None] + np.arange(n)] = self._eval_pcurves(rows, np.linspace(0.0, 1.0, n))
        x, y = self._to_norm(uv[:, 0], uv[:, 1], np.repeat(self._he_face, npts))
        self._pts = np.stack([x, y], axis=-1)
        self._pts_off, self._npts = off, npts

        # chords, grouped by half-edge table row
        nch = npts - 1
        a = _ragged_arange(off, nch)
        self._ax, self._ay = x[a], y[a]
        self._dx, self._dy = x[a + 1] - self._ax, y[a + 1] - self._ay
        self._inv_l2 = 1.0 / np.maximum(self._dx * self._dx + self._dy * self._dy, 1e-300)
        self._nseg = np.add.reduceat(nch, self._he_start) if nch.size else nch
        self._seg_start = np.cumsum(self._nseg) - self._nseg
        self._he_seg_off = np.cumsum(nch) - nch - np.repeat(self._seg_start, self._nhe)

        # trim edges: each loop's chained polylines, closed
        rows = self._he_row[self._loop_he]
        a = _ragged_arange(off[rows], nch[rows])
        upto = np.concatenate(([0], np.cumsum(nch[rows])))    # chords before each entry
        b = a[_cyclic_next(np.diff(upto[np.cumsum(loop_len)], prepend=0))]
        self._pax, self._pay = x[a], y[a]
        self._pby = y[b]
        self._pdx, self._pdy = x[b] - self._pax, self._pby - self._pay
        cross = self._pax * self._pdy - self._pdx * self._pay   # twice each face's signed area
        self._area2 = np.add.reduceat(cross, self._seg_start) if cross.size else cross

    def _eval_pcurves(self, rows, t, tangent: bool = False) -> np.ndarray:
        return pcurve_points([self._pcurves[r] for r in rows], t, tangent)

    # -- coordinates --------------------------------------------------------

    def _to_norm(self, u, v, fk):
        return ((u - self._u0[fk]) / self._du[fk] * self._su[fk],
                (v - self._v0[fk]) / self._dv[fk] * self._sv[fk])

    def _from_norm(self, x, y, fk):
        return (x / self._su[fk] * self._du[fk] + self._u0[fk],
                y / self._sv[fk] * self._dv[fk] + self._v0[fk])

    def in_trim_uv(self, uv, k: int) -> np.ndarray:
        """Even-odd trim test of raw UV points (N, 2) on face ``k``."""
        uv = np.asarray(uv, dtype=float)
        fk = np.full(len(uv), k)
        return self.in_trim(*self._to_norm(uv[:, 0], uv[:, 1], fk), fk)

    def cell_grid(self, k: int):
        """Face ``k``'s ``UV_GRID`` x ``UV_GRID`` cell centres in raw UV
        (u-major, (UV_GRID**2, 2)) and their trim mask."""
        u0, u1, v0, v1 = self.domains[k]
        us = u0 + (np.arange(UV_GRID) + 0.5) * (u1 - u0) / UV_GRID
        vs = v0 + (np.arange(UV_GRID) + 0.5) * (v1 - v0) / UV_GRID
        uu, vv = np.meshgrid(us, vs, indexing="ij")
        uv = np.stack([uu.ravel(), vv.ravel()], axis=-1)
        return uv, self.in_trim_uv(uv, k)

    # -- kernel -------------------------------------------------------------

    def _blocks(self, fk):
        """Slices of consecutive points holding about _PAIR_BLOCK pairs each."""
        if not fk.size:
            return []
        cum = np.cumsum(self._nseg[fk])
        cuts = np.searchsorted(cum, np.arange(_PAIR_BLOCK, cum[-1], _PAIR_BLOCK))
        bounds = np.unique(np.concatenate(([0], cuts, [fk.size])))
        return [slice(i, j) for i, j in zip(bounds[:-1], bounds[1:])]

    def _query(self, x, y, fk, owner=None, nearest=False) -> np.ndarray:
        """Run the kernel over (point x same-face row) pairs, block by block.

        Returns the even-odd trim test, that test and "owner is the nearest
        half-edge" when ``owner`` is given, or the nearest half-edge id when
        ``nearest`` is set.
        """
        x, y, fk = np.asarray(x, float), np.asarray(y, float), np.asarray(fk, int)
        out = np.empty(fk.size, dtype=int if nearest else bool)
        for sl in self._blocks(fk):
            f = fk[sl]
            cnt = self._nseg[f]
            first = np.cumsum(cnt) - cnt
            seg = _ragged_arange(self._seg_start[f], cnt)
            pt = np.repeat(np.arange(f.size), cnt)
            px, py = x[sl][pt], y[sl][pt]
            if not nearest:
                ay = self._pay[seg]
                straddle = (ay > py) != (self._pby[seg] > py)
                with np.errstate(divide="ignore", invalid="ignore"):
                    xi = self._pax[seg] + (py - ay) / self._pdy[seg] * self._pdx[seg]
                out[sl] = np.logical_xor.reduceat(straddle & (px < xi), first)
                if owner is None:
                    continue

            # squared distance to every chord, then the minimum per half-edge
            apx, apy = px - self._ax[seg], py - self._ay[seg]
            dx, dy = self._dx[seg], self._dy[seg]
            t = (apx * dx + apy * dy) * self._inv_l2[seg]
            np.clip(t, 0.0, 1.0, out=t)
            ex, ey = apx - t * dx, apy - t * dy
            d = ex * ex + ey * ey
            gcnt = self._nhe[f]
            gfirst = np.cumsum(gcnt) - gcnt
            rows = _ragged_arange(self._he_start[f], gcnt)
            if d.size != rows.size:   # some half-edge has several chords
                d = np.minimum.reduceat(d, np.repeat(first, gcnt) + self._he_seg_off[rows])

            if nearest:   # first minimum = lowest id, as np.argmin
                hit = (d == np.repeat(np.minimum.reduceat(d, gfirst), gcnt)) | np.isnan(d)
                pick = np.minimum.reduceat(np.where(hit, np.arange(d.size), d.size), gfirst)
                out[sl] = self._he_id[rows[pick]]
            else:         # own < every lower id and own <= every higher id
                own_row = self._he_row[owner[sl]]
                ref = np.repeat(d[gfirst + own_row - self._he_start[f]], gcnt)
                own_row = np.repeat(own_row, gcnt)
                beaten = np.where(rows < own_row, d <= ref, d < ref)
                out[sl] &= ~np.logical_or.reduceat(beaten, gfirst)
        return out

    def in_trim(self, x, y, fk) -> np.ndarray:
        """Even-odd trim test of each point against its face's loops."""
        return self._query(x, y, fk)

    def in_own_cell(self, x, y, fk, owner) -> np.ndarray:
        """In the trim and nearest to ``owner`` (ties to the lowest id)."""
        return self._query(x, y, fk, owner=np.asarray(owner, int))

    def nearest(self, x, y, fk) -> np.ndarray:
        """Nearest bounding half-edge id of each point (ties to the lowest id)."""
        return self._query(x, y, fk, nearest=True)

    # -- the walk -----------------------------------------------------------

    def _walk_extents(self, sx, sy, nx, ny, fk, owner):
        """First-exit distance of each ray from its own cell: march, then bisect."""
        steps = UV_GRID // 2
        ts = np.zeros((len(self.surfaces), steps + 1))
        for k in np.unique(fk):
            ts[k] = np.linspace(0.0, self._diag[k], steps + 1)
        first_bad, live = np.full(fk.size, steps + 1), np.arange(fk.size)
        for c0 in range(1, steps + 1, _MARCH_CHUNK):
            t = ts[fk[live], c0:c0 + _MARCH_CHUNK]
            n = t.shape[1]
            good = self.in_own_cell(
                (sx[live, None] + t * nx[live, None]).ravel(),
                (sy[live, None] + t * ny[live, None]).ravel(),
                np.repeat(fk[live], n), np.repeat(owner[live], n)).reshape(-1, n)
            failed = ~good.all(axis=1)
            first_bad[live[failed]] = c0 + np.argmin(good[failed], axis=1)
            live = live[~failed]
        lo = ts[fk, first_bad - 1]
        live = np.flatnonzero(first_bad <= steps)
        if live.size:
            lo_l, hi_l = lo[live], ts[fk[live], first_bad[live]]
            sx, sy, nx, ny = sx[live], sy[live], nx[live], ny[live]
            fk, owner = fk[live], owner[live]
            for _ in range(_BISECTIONS):
                mid = 0.5 * (lo_l + hi_l)
                good = self.in_own_cell(sx + mid * nx, sy + mid * ny, fk, owner)
                lo_l = np.where(good, mid, lo_l)
                hi_l = np.where(good, hi_l, mid)
            lo[live] = lo_l
        return lo

    def _rays(self, he, nc: int):
        """Start (sx, sy), unit normal (nx, ny), face, owner and "starts into
        the face" of the ``nc`` rays of each half-edge in ``he``: by the
        loop's signed area on a face of one half-edge, else by the probe."""
        rows = self._he_row[he]
        t_he = np.arange(1, nc + 1, dtype=float) / (nc + 1)
        uv = self._eval_pcurves(rows, t_he).reshape(-1, 2)
        g = self._eval_pcurves(rows, t_he, tangent=True).reshape(-1, 2)
        fk = np.repeat(self._he_face[rows], nc)
        owner = np.repeat(he, nc)
        sx, sy = self._to_norm(uv[:, 0], uv[:, 1], fk)
        tx = g[:, 0] / self._du[fk] * self._su[fk]
        ty = g[:, 1] / self._dv[fk] * self._sv[fk]
        norm = np.maximum(np.sqrt(tx * tx + ty * ty), 1e-300)
        nx, ny = -(ty / norm), tx / norm                # interior on the left

        # defensive orientation probe
        eps = 1e-4 * self._diag[fk]
        probe = self.in_trim(np.concatenate([sx + eps * nx, sx - eps * nx]),
                             np.concatenate([sy + eps * ny, sy - eps * ny]),
                             np.concatenate([fk, fk]))
        flip = ~probe[:fk.size] & probe[fk.size:]
        nx[flip] *= -1.0
        ny[flip] *= -1.0
        inward = np.where(self._nhe[fk] == 1, (self._area2[fk] > 0) != flip, probe[:fk.size] | flip)
        return sx, sy, nx, ny, fk, owner, inward

    def _extents(self, sx, sy, nx, ny, fk, owner, inward):
        """Depth of each of `_rays`' rays in its owner's cell: in closed form,
        one array pass, for a ray into its face from an owner of one chord or
        on a face of one half-edge; by the march for the rest."""
        rows = self._he_row[owner]
        alone = self._nhe[fk] == 1
        exact = inward & (alone | (self._npts[rows] == 2))
        idx = np.flatnonzero(exact)
        t_exit = np.full(fk.size, np.inf)
        for sl in self._blocks(fk[idx]):
            i = idx[sl]
            cnt = self._nseg[fk[i]]
            seg = _ragged_arange(self._seg_start[fk[i]], cnt)
            r = np.repeat(i, cnt)
            px, py = nx[r], ny[r]

            # p(t) = s + t n lies t from its own chord; each piece of chord
            # [A, A + D] comes closer than t past a linear bound on t
            wx, wy = sx[r] - self._ax[seg], sy[r] - self._ay[seg]
            dx, dy = self._dx[seg], self._dy[seg]
            bx, by = wx - dx, wy - dy
            ends = np.minimum(_onset(wx * wx + wy * wy, -2.0 * (px * wx + py * wy)),
                              _onset(bx * bx + by * by, -2.0 * (px * bx + py * by)))
            l2, wd, nd = dx * dx + dy * dy, wx * dx + wy * dy, px * dx + py * dy
            length, c0, c1 = np.sqrt(l2), dx * wy - dy * wx, dx * py - dy * px
            line = np.maximum(_onset(c0, length - c1), _onset(-c0, length + c1))
            with np.errstate(divide="ignore", invalid="ignore"):
                ta, tb = -wd / nd, (l2 - wd) / nd     # the foot passes A, A + D
            inner = np.maximum(line, np.minimum(ta, tb))
            beat = np.minimum(ends, np.where(inner < np.maximum(ta, tb), inner, np.inf))
            beat[seg == self._seg_start[fk[r]] + self._he_seg_off[rows[r]]] = np.inf

            # alone on its face: the first outward crossing of the loop
            qx, qy = self._pax[seg] - sx[r], self._pay[seg] - sy[r]
            ex, ey = self._pdx[seg], self._pdy[seg]
            den = px * ey - py * ex
            with np.errstate(divide="ignore", invalid="ignore"):
                t, u = (qx * ey - qy * ex) / den, (qx * py - qy * px) / den
            out = (den * self._area2[fk[r]] > 0.0) & (u >= 0.0) & (u <= 1.0) & (t > 0.0)
            t_exit[i] = np.minimum.reduceat(np.where(alone[r], np.where(out, t, np.inf), beat),
                                            np.cumsum(cnt) - cnt)

        # one march bracket short of the exit keeps the last sample inside
        width = self._diag[fk] / (UV_GRID // 2) / 2.0 ** _BISECTIONS
        depth = np.clip(t_exit - width, 0.0, self._diag[fk])
        if not exact.all():
            rest = ~exact
            depth[rest] = self._walk_extents(*(a[rest] for a in (sx, sy, nx, ny, fk, owner)))
        return depth

    def half_patches(self, he_ids, on_curve, n_surface: int) -> np.ndarray:
        """(K, N_c, N_s, 3) half-patches of the given half-edges.

        ``on_curve`` (K, N_c, 3) holds each half-edge's curve samples, which
        become column 0.  Rays of zero depth collapse onto the curve, with
        one ZeroDepthWarning per affected half-edge.
        """
        nc, ns = on_curve.shape[1], n_surface
        he = np.asarray(he_ids, dtype=int)
        samples = np.empty((he.size, nc, ns, 3))
        samples[:, :, 0, :] = on_curve
        if ns == 1 or not he.size:
            return samples
        rays = self._rays(he, nc)
        sx, sy, nx, ny, fk = rays[:5]
        extents = self._extents(*rays)
        step = extents[:, None] * (np.arange(1, ns, dtype=float) / (ns - 1))
        pfk = np.repeat(fk, ns - 1)
        u, v = self._from_norm((sx[:, None] + step * nx[:, None]).ravel(),
                               (sy[:, None] + step * ny[:, None]).ravel(), pfk)
        np.clip(u, self._u0[pfk], self._u1[pfk], out=u)
        np.clip(v, self._v0[pfk], self._v1[pfk], out=v)
        pts = _naming_faces(lambda: surface_points(self.surfaces, pfk, u, v), np.unique(fk),
                            lambda k: self.surfaces[k].point(u[pfk == k], v[pfk == k]))
        samples[:, :, 1:, :] = pts.reshape(he.size, nc, ns - 1, 3)

        degenerate = extents.reshape(he.size, nc) < 1e-9
        for i in np.flatnonzero(degenerate.any(axis=1)):
            warnings.warn(
                f"halfedge {he[i]}: zero-depth walk on face {fk[i * nc]}; "
                f"surface samples collapse onto the curve",
                ZeroDepthWarning,
                stacklevel=3,
            )
            samples[i, degenerate[i], 1:, :] = samples[i, degenerate[i], :1, :]
        return samples


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def voronoi_assign(model: BrepModel, face: int,
                   charts: FaceCharts | None = None) -> np.ndarray:
    """Label each in-trim grid sample with its nearest bounding half-edge.

    Returns the ``(UV_GRID, UV_GRID)`` int array over the cell centres of
    ``charts.cell_grid(face)`` (u-major, spanning ``charts.domains[face]``):
    each entry is a half-edge id, or -1 outside the trim.  ``charts`` is the
    model's ``FaceCharts``; pass it when labelling several faces, as
    building it covers every face.
    """
    charts = charts or FaceCharts(model)
    uv, inside = charts.cell_grid(face)
    labels = np.full(UV_GRID * UV_GRID, -1, dtype=int)
    if inside.any():
        fk = np.full(int(inside.sum()), face)
        labels[inside] = charts.nearest(*charts._to_norm(uv[inside, 0], uv[inside, 1], fk), fk)
    return labels.reshape(UV_GRID, UV_GRID)


def extract_vhp(model: BrepModel, cfg: SamplingConfig | None = None,
                charts: FaceCharts | None = None) -> np.ndarray:
    """The (2E, ``cfg.descriptor_length``) descriptor matrix of a model.

    Row ``h`` is half-edge ``h`` in the `_pack` layout.  ``charts`` is the
    model's `FaceCharts` if the caller has built it.
    """
    cfg = cfg or SamplingConfig()
    if charts is None:
        charts = FaceCharts(model)
    he, nxt = charts._loop_he, charts._loop_next
    curve = _naming_faces(
        lambda: halfedge_curve_samples(model, he, cfg.n_curve), np.unique(charts._loop_face),
        lambda f: halfedge_curve_samples(model, he[charts._loop_face == f], cfg.n_curve))
    on_curve = np.empty_like(curve)
    on_curve[he] = curve
    samples = charts.half_patches(he, curve, cfg.n_surface)
    descs = np.empty((len(model.halfedges), cfg.descriptor_length))
    descs[he] = _pack(samples, on_curve[nxt, : cfg.n_next], charts._loop_outer)
    return descs
