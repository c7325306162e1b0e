"""Parametric curves, surfaces, and 2D parameter-space curves.

Curves map a parameter u in [0, 1] to 3D points.  Surfaces map a
rectangular (u, v) domain to 3D points and expose first partial
derivatives on the domain interior.  Pcurves (Segment2 / Arc2 / Poly2)
trace a half-edge's image inside its face's parameter rectangle and use
the same [0, 1] parameter convention, running along the half-edge
direction.

All variants support an exact similarity transform ``transformed(offset,
scale)`` mapping points p to (p - offset) * scale without touching
parameter domains, so model normalization never invalidates pcurves.

``KINDS`` maps each variant's ``kind`` tag to its class; it is the one
list of the kinds that exist.  Constructors reject non-finite numbers
with GeometryError.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TAU = 2.0 * np.pi


class GeometryError(ValueError):
    """Degenerate geometry or evaluation outside a valid parameter domain."""


def _finite(a, what: str):
    """``a`` (a float or an array) itself, or GeometryError when any entry is NaN or
    infinite.  On the short arrays the codec builds, ``math.isfinite`` over a
    list beats ``np.isfinite``."""
    if not (math.isfinite(a) if isinstance(a, float) else
            all(map(math.isfinite, a.ravel().tolist()))):
        raise GeometryError(f"non-finite {what}: {a!r}")
    return a


def _points(p, shape, what: str) -> np.ndarray:
    return _finite(np.asarray(p, dtype=float).reshape(shape), what)


def _vec(p, dim: int = 3) -> np.ndarray:
    return _points(p, dim, "coordinates")


def _set_reals(obj, *names) -> None:
    """Store the named fields of a frozen dataclass as finite floats."""
    for name in names:
        object.__setattr__(obj, name, _finite(float(getattr(obj, name)), name))


def _unit(v) -> np.ndarray:
    v = _vec(v)
    n = np.linalg.norm(v)
    if n < 1e-12:
        raise GeometryError("zero-length direction vector")
    return v / n


# |n| components this close to the least tie: fitted normals carry ~1e-13 noise.
_AXIS_TIE = 1e-12


def frame_for_normal(n) -> tuple:
    """Right-handed in-plane basis (U, V) with U x V along n (row by row for
    (L, 3) unit normals): U is the lowest axis least along n, made normal to n."""
    n = _unit(n) if np.ndim(n) == 1 else np.asarray(n, dtype=float)
    a = np.abs(n)
    u = np.eye(3)[np.argmax(a <= a.min(axis=-1, keepdims=True) + _AXIS_TIE, axis=-1)]
    u -= (u * n).sum(axis=-1, keepdims=True) * n
    u /= np.linalg.norm(u, axis=-1, keepdims=True)
    return u, np.cross(n, u)


def _bernstein3(t):
    t = np.asarray(t, dtype=float)
    mt = 1.0 - t
    return np.stack([mt**3, 3.0 * mt**2 * t, 3.0 * mt * t**2, t**3], axis=-1)


def _bernstein3_deriv(t):
    t = np.asarray(t, dtype=float)
    mt = 1.0 - t
    return np.stack(
        [-3.0 * mt**2, 3.0 * mt**2 - 6.0 * mt * t, 6.0 * mt * t - 3.0 * t**2, 3.0 * t**2],
        axis=-1,
    )


def _tensor_basis(bu, bv):
    """The 16 products ``bu[..., i] * bv[..., j]`` of two cubic bases, i-major:
    (..., 16), the rows that pair with ``BicubicPatch.control.reshape(16, 3)``."""
    basis = bu[..., :, None] * bv[..., None, :]
    return basis.reshape(basis.shape[:-2] + (16,))


# ---------------------------------------------------------------------------
# Curves
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class LineSegment:
    """Straight segment from p0 (u=0) to p1 (u=1)."""

    p0: np.ndarray
    p1: np.ndarray

    kind = "line"

    def __post_init__(self):
        object.__setattr__(self, "p0", _vec(self.p0))
        object.__setattr__(self, "p1", _vec(self.p1))

    def point(self, u):
        u = np.asarray(u, dtype=float)
        return self.p0 + np.multiply.outer(u, self.p1 - self.p0)

    def length(self) -> float:
        return float(np.linalg.norm(self.p1 - self.p0))

    def bbox(self):
        pts = np.stack([self.p0, self.p1])
        return pts.min(axis=0), pts.max(axis=0)

    def transformed(self, offset, scale: float) -> "LineSegment":
        o = _vec(offset)
        return LineSegment((self.p0 - o) * scale, (self.p1 - o) * scale)


@dataclass(frozen=True, eq=False)
class CircularArc:
    """Arc of a circle; theta runs linearly from theta0 (u=0) to theta1 (u=1).

    x_axis and y_axis are orthonormal vectors spanning the circle plane; a
    full circle uses theta1 = theta0 + 2*pi.
    """

    center: np.ndarray
    radius: float
    x_axis: np.ndarray
    y_axis: np.ndarray
    theta0: float
    theta1: float

    kind = "arc"

    def __post_init__(self):
        object.__setattr__(self, "center", _vec(self.center))
        object.__setattr__(self, "x_axis", _unit(self.x_axis))
        object.__setattr__(self, "y_axis", _unit(self.y_axis))
        _set_reals(self, "radius", "theta0", "theta1")
        if self.radius <= 0:
            raise GeometryError("arc radius must be positive")
        if self.theta1 == self.theta0:
            raise GeometryError("arc sweep must be non-zero")
        if abs(np.dot(self.x_axis, self.y_axis)) > 1e-9:
            raise GeometryError("arc frame axes must be orthogonal")

    def _theta(self, u):
        u = np.asarray(u, dtype=float)
        return self.theta0 + u * (self.theta1 - self.theta0)

    def point(self, u):
        th = self._theta(u)
        return (
            self.center
            + self.radius * np.multiply.outer(np.cos(th), self.x_axis)
            + self.radius * np.multiply.outer(np.sin(th), self.y_axis)
        )

    def length(self) -> float:
        return abs(self.radius * (self.theta1 - self.theta0))

    def bbox(self):
        lo_t, hi_t = sorted((self.theta0, self.theta1))
        pts = [self.point(0.0), self.point(1.0)]
        # per-coordinate extrema of c_i + A_i * cos(theta - phi_i)
        for i in range(3):
            xi, yi = self.x_axis[i], self.y_axis[i]
            if abs(xi) < 1e-15 and abs(yi) < 1e-15:
                continue
            phi = np.arctan2(yi, xi)
            for extremum in (phi, phi + np.pi):
                k0 = np.ceil((lo_t - extremum) / TAU)
                th = extremum + k0 * TAU
                while th <= hi_t + 1e-15:
                    u = (th - self.theta0) / (self.theta1 - self.theta0)
                    pts.append(self.point(float(np.clip(u, 0.0, 1.0))))
                    th += TAU
        pts = np.stack(pts)
        return pts.min(axis=0), pts.max(axis=0)

    def transformed(self, offset, scale: float) -> "CircularArc":
        o = _vec(offset)
        return CircularArc(
            (self.center - o) * scale,
            self.radius * scale,
            self.x_axis,
            self.y_axis,
            self.theta0,
            self.theta1,
        )


@dataclass(frozen=True, eq=False)
class PolylineCurve:
    """Piecewise-linear curve; u is uniform in segment index."""

    points: np.ndarray  # (M, 3), M >= 2

    kind = "polyline"

    def __post_init__(self):
        p = _points(self.points, (-1, 3), "polyline points")
        if p.shape[0] < 2:
            raise GeometryError("polyline needs at least 2 points")
        object.__setattr__(self, "points", p)

    def point(self, u):
        u = np.asarray(u, dtype=float)
        nseg = self.points.shape[0] - 1
        s = np.clip(u, 0.0, 1.0) * nseg
        i = np.clip(np.floor(s).astype(int), 0, nseg - 1)
        f = s - i
        return self.points[i] + f[..., None] * (self.points[i + 1] - self.points[i])

    def length(self) -> float:
        return float(np.linalg.norm(np.diff(self.points, axis=0), axis=1).sum())

    def bbox(self):
        return self.points.min(axis=0), self.points.max(axis=0)

    def transformed(self, offset, scale: float) -> "PolylineCurve":
        o = _vec(offset)
        return PolylineCurve((self.points - o) * scale)


# ---------------------------------------------------------------------------
# Surfaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Plane:
    """Planar patch P(u, v) = origin + u * u_vec + v * v_vec over [0,1]^2."""

    origin: np.ndarray
    u_vec: np.ndarray
    v_vec: np.ndarray

    kind = "plane"

    def __post_init__(self):
        object.__setattr__(self, "origin", _vec(self.origin))
        object.__setattr__(self, "u_vec", _vec(self.u_vec))
        object.__setattr__(self, "v_vec", _vec(self.v_vec))

    def domain(self):
        return (0.0, 1.0, 0.0, 1.0)

    def point(self, u, v):
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        return (
            self.origin
            + np.multiply.outer(u, self.u_vec)
            + np.multiply.outer(v, self.v_vec)
        )

    def partials(self, u, v):
        u = np.asarray(u, dtype=float)
        shape = np.broadcast(u, np.asarray(v, dtype=float)).shape
        pu = np.broadcast_to(self.u_vec, shape + (3,)).copy()
        pv = np.broadcast_to(self.v_vec, shape + (3,)).copy()
        return pu, pv

    def uv_of_point(self, p):
        """Exact inverse for points in the plane (least squares otherwise)."""
        p = np.asarray(p, dtype=float)
        d = p - self.origin
        g = np.array(
            [
                [self.u_vec @ self.u_vec, self.u_vec @ self.v_vec],
                [self.u_vec @ self.v_vec, self.v_vec @ self.v_vec],
            ]
        )
        rhs = np.stack([d @ self.u_vec, d @ self.v_vec], axis=-1)
        sol = np.linalg.solve(g, rhs[..., None])[..., 0]
        return sol

    def transformed(self, offset, scale: float) -> "Plane":
        o = _vec(offset)
        return Plane((self.origin - o) * scale, self.u_vec * scale, self.v_vec * scale)


@dataclass(frozen=True, eq=False)
class CylinderPatch:
    """Cylinder wall P(u, v) = c + r(cos u X + sin u Y) + v * axis.

    u is the angle in radians over [u0, u1]; v spans [0, 1] along the
    (non-unit) axis vector.  A full cylinder uses u1 = u0 + 2*pi and must
    be bounded by seam edges so the trimmed domain stays simply connected.
    """

    center: np.ndarray
    radius: float
    x_axis: np.ndarray
    y_axis: np.ndarray
    axis: np.ndarray
    u0: float
    u1: float

    kind = "cylinder"

    def __post_init__(self):
        object.__setattr__(self, "center", _vec(self.center))
        object.__setattr__(self, "x_axis", _unit(self.x_axis))
        object.__setattr__(self, "y_axis", _unit(self.y_axis))
        object.__setattr__(self, "axis", _vec(self.axis))
        _set_reals(self, "radius", "u0", "u1")
        if self.radius <= 0:
            raise GeometryError("cylinder radius must be positive")

    def domain(self):
        return (self.u0, self.u1, 0.0, 1.0)

    def point(self, u, v):
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        return (
            self.center
            + self.radius * np.multiply.outer(np.cos(u), self.x_axis)
            + self.radius * np.multiply.outer(np.sin(u), self.y_axis)
            + np.multiply.outer(v, self.axis)
        )

    def partials(self, u, v):
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        pu = self.radius * (
            np.multiply.outer(-np.sin(u), self.x_axis)
            + np.multiply.outer(np.cos(u), self.y_axis)
        )
        shape = np.broadcast(u, v).shape
        pv = np.broadcast_to(self.axis, shape + (3,)).copy()
        return pu, pv

    def transformed(self, offset, scale: float) -> "CylinderPatch":
        o = _vec(offset)
        return CylinderPatch(
            (self.center - o) * scale,
            self.radius * scale,
            self.x_axis,
            self.y_axis,
            self.axis * scale,
            self.u0,
            self.u1,
        )


@dataclass(frozen=True, eq=False)
class BicubicPatch:
    """Bicubic tensor-product Bezier patch over [0,1]^2."""

    control: np.ndarray  # (4, 4, 3): control[i][j] pairs B_i(u) with B_j(v)

    kind = "bicubic"

    def __post_init__(self):
        # C order: `blend` sums in the order the einsum takes on such an array
        c = np.ascontiguousarray(_points(self.control, (4, 4, 3), "control points"))
        object.__setattr__(self, "control", c)

    def domain(self):
        return (0.0, 1.0, 0.0, 1.0)

    def point(self, u, v):
        return self.blend(_tensor_basis(_bernstein3(u), _bernstein3(v)))

    def partials(self, u, v):
        bu = _bernstein3(u)
        bv = _bernstein3(v)
        return (self.blend(_tensor_basis(_bernstein3_deriv(u), bv)),
                self.blend(_tensor_basis(bu, _bernstein3_deriv(v))))

    def blend(self, basis):
        """Points (..., 3) of 16-term tensor bases (..., 16), as `_tensor_basis`
        builds them.  Each sums its terms (bu_i bv_j) control_ij in i-major
        order, bit for bit as np.einsum("...i,...j,ijk->...k") does."""
        return np.einsum("...i,ik->...k", basis, self.control.reshape(16, 3))

    def transformed(self, offset, scale: float) -> "BicubicPatch":
        o = _vec(offset)
        return BicubicPatch((self.control - o) * scale)


# ---------------------------------------------------------------------------
# Pcurves (2D curves in a face's parameter rectangle)
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Segment2:
    a: np.ndarray
    b: np.ndarray

    kind = "seg2"

    def __post_init__(self):
        object.__setattr__(self, "a", _vec(self.a, 2))
        object.__setattr__(self, "b", _vec(self.b, 2))

    def point(self, t):
        t = np.asarray(t, dtype=float)
        return self.a + np.multiply.outer(t, self.b - self.a)

    def tangent(self, t):
        t = np.asarray(t, dtype=float)
        return np.broadcast_to(self.b - self.a, t.shape + (2,)).copy()


@dataclass(frozen=True, eq=False)
class Arc2:
    """Circular arc in UV space, phi linear in t."""

    center: np.ndarray
    radius: float
    phi0: float
    phi1: float

    kind = "arc2"

    def __post_init__(self):
        object.__setattr__(self, "center", _vec(self.center, 2))
        _set_reals(self, "radius", "phi0", "phi1")
        if self.radius <= 0:
            raise GeometryError("arc radius must be positive")

    def point(self, t):
        t = np.asarray(t, dtype=float)
        phi = self.phi0 + t * (self.phi1 - self.phi0)
        return self.center + self.radius * np.stack([np.cos(phi), np.sin(phi)], axis=-1)

    def tangent(self, t):
        t = np.asarray(t, dtype=float)
        phi = self.phi0 + t * (self.phi1 - self.phi0)
        dphi = self.phi1 - self.phi0
        return self.radius * dphi * np.stack([-np.sin(phi), np.cos(phi)], axis=-1)


@dataclass(frozen=True, eq=False)
class Poly2:
    points: np.ndarray  # (M, 2)

    kind = "poly2"

    def __post_init__(self):
        p = _points(self.points, (-1, 2), "poly2 points")
        if p.shape[0] < 2:
            raise GeometryError("poly2 needs at least 2 points")
        object.__setattr__(self, "points", p)

    def point(self, t):
        t = np.asarray(t, dtype=float)
        nseg = self.points.shape[0] - 1
        s = np.clip(t, 0.0, 1.0) * nseg
        i = np.clip(np.floor(s).astype(int), 0, nseg - 1)
        f = s - i
        return self.points[i] + f[..., None] * (self.points[i + 1] - self.points[i])

    def tangent(self, t):
        t = np.asarray(t, dtype=float)
        nseg = self.points.shape[0] - 1
        s = np.clip(t, 0.0, 1.0) * nseg
        i = np.clip(np.floor(s).astype(int), 0, nseg - 1)
        return (self.points[i + 1] - self.points[i]) * nseg


# ---------------------------------------------------------------------------
# Batched evaluation: one array pass per kind, bit-identical to each object's
# own method (the same operations on the same operands, in the same order)
# ---------------------------------------------------------------------------

def _by_kind(objs) -> dict:
    """class -> indices of ``objs`` of that class, in first-seen order."""
    out: dict = {}
    for i, o in enumerate(objs):
        out.setdefault(type(o), []).append(i)
    return out


def _rows(group, name: str) -> np.ndarray:
    """Field ``name`` of every object of ``group``, stacked as floats."""
    return np.array([getattr(o, name) for o in group], dtype=float)


def _arc_points(group, u) -> np.ndarray:
    """``point`` of each CircularArc of ``group`` at its row of ``u``:
    (K, ...) -> (K, ..., 3)."""
    theta0 = _rows(group, "theta0")
    sweep = _rows(group, "theta1") - theta0
    lead = (slice(None),) + (None,) * (np.ndim(u) - 1)
    th = theta0[lead] + u * sweep[lead]
    center, x, y = (_rows(group, f)[lead] for f in ("center", "x_axis", "y_axis"))
    radius = _rows(group, "radius")[lead + (None,)]
    return (center + radius * (np.cos(th)[..., None] * x)
            + radius * (np.sin(th)[..., None] * y))


def curve_points(curves, u, forward) -> np.ndarray:
    """``point(u)`` of several curves at shared u -> (K, T, 3); curve i runs
    at ``1.0 - u`` where ``forward[i]`` is false, as a reverse half-edge does.

    LineSegment, CircularArc and PolylineCurve curves are evaluated one array
    pass per kind; other kinds are called one by one.
    """
    u = np.asarray(u, dtype=float).reshape(-1)
    fwd = np.asarray(forward, dtype=bool)
    out = np.empty((len(curves), u.size, 3))
    for kind, idx in _by_kind(curves).items():
        group = [curves[i] for i in idx]
        uu = np.where(fwd[idx, None], u, 1.0 - u)
        if kind is LineSegment:
            p0 = _rows(group, "p0")[:, None]
            out[idx] = p0 + uu[..., None] * (_rows(group, "p1")[:, None] - p0)
        elif kind is CircularArc:
            out[idx] = _arc_points(group, uu)
        elif kind is PolylineCurve:
            n = np.array([c.points.shape[0] for c in group])
            pts = np.concatenate([c.points for c in group])
            nseg = (n - 1)[:, None]
            s = np.clip(uu, 0.0, 1.0) * nseg
            i = np.clip(np.floor(s).astype(int), 0, nseg - 1)
            f = s - i
            j = (np.cumsum(n) - n)[:, None] + i
            out[idx] = pts[j] + f[..., None] * (pts[j + 1] - pts[j])
        else:
            out[idx] = [c.point(w) for c, w in zip(group, uu)]
    return out


def _arc_bbox_points(group) -> np.ndarray:
    """The points `CircularArc.bbox` reduces, for each arc of ``group``, in its
    order, -> (K, C, 3); a candidate that arc skips is NaN."""
    theta0, theta1 = _rows(group, "theta0"), _rows(group, "theta1")
    lo_t, hi_t = np.minimum(theta0, theta1), np.maximum(theta0, theta1)
    x, y = _rows(group, "x_axis"), _rows(group, "y_axis")
    axis_ok = ~((np.abs(x) < 1e-15) & (np.abs(y) < 1e-15))
    phi = np.arctan2(y, x)
    th = np.stack([phi, phi + np.pi], axis=-1)            # (K, axis, extremum)
    th = th + np.ceil((lo_t[:, None, None] - th) / TAU) * TAU
    found = []
    while True:
        keep = axis_ok[..., None] & (th <= hi_t[:, None, None] + 1e-15)
        if not keep.any():
            break
        u = (th - theta0[:, None, None]) / (theta1 - theta0)[:, None, None]
        found.append(np.where(keep[..., None], _arc_points(group, np.clip(u, 0.0, 1.0)), np.nan))
        th = th + TAU
    ends = _arc_points(group, np.array([[0.0, 1.0]] * len(group)))
    extremes = np.stack(found, axis=3) if found else np.empty((len(group), 3, 2, 0, 3))
    return np.concatenate([ends, extremes.reshape(len(group), -1, 3)], axis=1)


def curve_bboxes(curves):
    """``bbox()`` of several curves -> (lo, hi), each (K, 3).

    LineSegment, CircularArc and PolylineCurve curves take one array pass per
    kind; other kinds are called one by one.
    """
    lo, hi = np.empty((len(curves), 3)), np.empty((len(curves), 3))
    for kind, idx in _by_kind(curves).items():
        group = [curves[i] for i in idx]
        if kind is PolylineCurve:
            n = np.array([c.points.shape[0] for c in group])
            pts, first = np.concatenate([c.points for c in group]), np.cumsum(n) - n
            lo[idx], hi[idx] = np.minimum.reduceat(pts, first), np.maximum.reduceat(pts, first)
        elif kind in (LineSegment, CircularArc):
            pts = (np.stack([_rows(group, "p0"), _rows(group, "p1")], axis=1)
                   if kind is LineSegment else _arc_bbox_points(group))
            lo[idx], hi[idx] = np.fmin.reduce(pts, axis=1), np.fmax.reduce(pts, axis=1)
        else:
            lo[idx], hi[idx] = zip(*(c.bbox() for c in group))
    return lo, hi


def surface_points(surfaces, k, u, v) -> np.ndarray:
    """``surfaces[k[i]].point(u[i], v[i])`` for every i -> (N, 3).

    Plane and CylinderPatch points take one array pass per kind; other
    kinds are called surface by surface.
    """
    k = np.asarray(k, dtype=int)
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    out = np.empty((k.size, 3))
    slot = np.empty(len(surfaces), dtype=int)
    for kind, idx in _by_kind(surfaces).items():
        group = [surfaces[i] for i in idx]
        slot[idx] = np.arange(len(idx))
        sel = np.flatnonzero(np.isin(k, idx))
        g, su, sv = slot[k[sel]], u[sel, None], v[sel, None]
        if kind is Plane:
            out[sel] = (_rows(group, "origin")[g] + su * _rows(group, "u_vec")[g]
                        + sv * _rows(group, "v_vec")[g])
        elif kind is CylinderPatch:
            radius = _rows(group, "radius")[g, None]
            out[sel] = (_rows(group, "center")[g]
                        + radius * (np.cos(su) * _rows(group, "x_axis")[g])
                        + radius * (np.sin(su) * _rows(group, "y_axis")[g])
                        + sv * _rows(group, "axis")[g])
        else:
            for i in idx:
                at = np.flatnonzero(k == i)
                if at.size:
                    out[at] = surfaces[i].point(u[at], v[at])
    return out


def surface_midpoint_norms(surfaces):
    """``domain()`` of each surface, (S, 4), and the norms of its ``partials``
    at the domain's midpoint, (S, 2).

    Plane and CylinderPatch surfaces take one array pass per kind, with
    norms as ``np.linalg.norm`` takes them (one dot product per vector);
    other kinds are called one by one.
    """
    dom, norms = np.empty((len(surfaces), 4)), np.empty((len(surfaces), 2))
    for kind, idx in _by_kind(surfaces).items():
        group = [surfaces[i] for i in idx]
        if kind is Plane:
            dom[idx] = (0.0, 1.0, 0.0, 1.0)
            pu, pv = _rows(group, "u_vec"), _rows(group, "v_vec")
        elif kind is CylinderPatch:
            u0, u1 = _rows(group, "u0"), _rows(group, "u1")
            dom[idx] = np.stack([u0, u1, np.zeros_like(u0), np.ones_like(u0)], axis=1)
            mid = (0.5 * (u0 + u1))[:, None]
            pu = _rows(group, "radius")[:, None] * (
                -np.sin(mid) * _rows(group, "x_axis") + np.cos(mid) * _rows(group, "y_axis"))
            pv = _rows(group, "axis")
        else:
            for i, s in zip(idx, group):
                u0, u1, v0, v1 = dom[i] = s.domain()
                pu, pv = s.partials(0.5 * (u0 + u1), 0.5 * (v0 + v1))
                norms[i] = np.linalg.norm(pu), np.linalg.norm(pv)
            continue
        norms[idx] = np.sqrt(np.stack([np.vecdot(pu, pu), np.vecdot(pv, pv)], axis=1))
    return dom, norms


def pcurve_points(pcurves, t, tangent: bool = False) -> np.ndarray:
    """``point(t)`` (or ``tangent(t)``) of several pcurves at shared t -> (K, T, 2).

    Segment2 and Arc2 curves are evaluated together, one array pass per
    kind, with the same arithmetic as their own methods, so every value is
    bit-identical to the per-curve call; other kinds are called one by one.
    """
    t = np.asarray(t, dtype=float).reshape(-1)
    out = np.empty((len(pcurves), t.size, 2))
    for kind, idx in _by_kind(pcurves).items():
        group = [pcurves[i] for i in idx]
        if kind is Segment2:
            a = np.array([pc.a for pc in group])
            d = np.array([pc.b for pc in group]) - a
            out[idx] = d[:, None, :] if tangent else a[:, None, :] + t[:, None] * d[:, None, :]
        elif kind is Arc2:
            phi0 = np.array([pc.phi0 for pc in group])
            dphi = np.array([pc.phi1 for pc in group]) - phi0
            phi = phi0[:, None] + t * dphi[:, None]
            if tangent:
                scale = np.array([pc.radius for pc in group]) * dphi
                out[idx, :, 0] = scale[:, None] * -np.sin(phi)
                out[idx, :, 1] = scale[:, None] * np.cos(phi)
            else:
                center = np.array([pc.center for pc in group])
                radius = np.array([pc.radius for pc in group])[:, None]
                out[idx, :, 0] = center[:, :1] + radius * np.cos(phi)
                out[idx, :, 1] = center[:, 1:] + radius * np.sin(phi)
        else:
            out[idx] = [pc.tangent(t) if tangent else pc.point(t) for pc in group]
    return out


# kind -> class, for every geometry a model file may name.  The dataclass
# fields, in declaration order, are a record's keys after "kind".
KINDS = {cls.kind: cls for cls in (LineSegment, CircularArc, PolylineCurve,
                                   Plane, CylinderPatch, BicubicPatch,
                                   Segment2, Arc2, Poly2)}
