"""Parametric curves, surfaces, and 2D parameter-space curves.

Curves map a parameter u in [0, 1] to 3D points.  Surfaces map a
rectangular (u, v) domain to 3D points and expose first partial
derivatives on the domain interior.  Pcurves (Segment2 / Arc2 / Poly2)
trace a half-edge's image inside its face's parameter rectangle and use
the same [0, 1] parameter convention, running along the half-edge
direction.

``similarity`` maps curves and surfaces by p -> (p - offset) * scale, one
pass per kind over the stacked fields of all its objects: points and
centres shift and scale; radii, spans and axes scale; unit axes, angles and
parameter domains stay, so model normalization never invalidates pcurves.

Each kind's arithmetic is written once, as a private kernel over field
arrays that broadcast over leading axes.  An object's methods pass it their
own fields; the batched evaluators (``curve_points``, ``curve_bboxes``,
``surface_points``, ``surface_midpoint_norms``, ``pcurve_points``) pass it
the stacked fields of every object of one kind.  So the two agree bit for
bit.

``KINDS`` maps each variant's ``kind`` tag to its class; it is the one
list of the kinds that exist.  Constructors reject non-finite numbers
and degenerate geometry (zero sweeps, zero spans) with GeometryError.
Code that holds a kind's fields as arrays already (``similarity``, the
rebuild) makes its objects through ``_build``, which checks each of the
constructor's rules once per array, vectorized, instead of once per object.
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
    # n x u, term by term as np.cross takes it
    (n1, n2, n3), (u1, u2, u3) = np.moveaxis(n, -1, 0), np.moveaxis(u, -1, 0)
    return u, np.stack([n2 * u3 - n3 * u2, n3 * u1 - n1 * u3, n1 * u2 - n2 * u1], axis=-1)


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
# Kernels: each kind's arithmetic, once.  A kernel takes the parameters, then
# the kind's fields in declaration order (a point list as its points, first
# row and segment count; trailing fields it does not read go to ``*_``).  A
# scalar field broadcasts as the parameters do, a vector field as the
# parameters with a trailing coordinate axis.
# ---------------------------------------------------------------------------

def _linear(t, a, b):
    """a + t (b - a): LineSegment and Segment2 points."""
    return a + np.asarray(t, dtype=float)[..., None] * (b - a)


def _constant(vec, *params):
    """A new array of ``vec`` repeated over the broadcast shape of ``params``."""
    out = np.empty(np.broadcast(*params).shape + vec.shape[-1:])
    out[...] = vec
    return out


def _linear_tangent(t, a, b):
    return _constant(b - a, t)


def _bbox(pts):
    """(lo, hi) over the candidate points (..., C, 3), NaN candidates skipped."""
    return np.fmin.reduce(pts, axis=-2), np.fmax.reduce(pts, axis=-2)


def _linear_bbox(a, b):
    return _bbox(np.stack([a, b], axis=-2))


def _segment(t, nseg):
    """t in segment units, clamped to [0, nseg], and the segment it falls in."""
    s = np.clip(np.asarray(t, dtype=float), 0.0, 1.0) * nseg
    return s, np.clip(np.floor(s).astype(int), 0, nseg - 1)


def _piecewise(t, pts, first, nseg):
    """Points of polylines stored back to back in ``pts``, each ``nseg``
    segments from row ``first``, t uniform in segment index: PolylineCurve
    and Poly2."""
    s, i = _segment(t, nseg)
    j = first + i
    return pts[j] + (s - i)[..., None] * (pts[j + 1] - pts[j])


def _piecewise_tangent(t, pts, first, nseg):
    j = first + _segment(t, nseg)[1]
    return (pts[j + 1] - pts[j]) * np.asarray(nseg)[..., None]


def _piecewise_bbox(pts, first, *_):
    at = np.ravel(first)
    return tuple(f.reduceat(pts, at).reshape(np.shape(first) + pts.shape[-1:])
                 for f in (np.minimum, np.maximum))


def _circle(th, center, radius, x, y):
    """center + r (cos th) x + r (sin th) y, summed as written."""
    r = np.asarray(radius)[..., None]
    return center + r * (np.cos(th)[..., None] * x) + r * (np.sin(th)[..., None] * y)


def _arc_points(u, center, radius, x, y, theta0, theta1):
    return _circle(theta0 + np.asarray(u, dtype=float) * (theta1 - theta0), center, radius, x, y)


def _arc_bbox(center, radius, x, y, theta0, theta1):
    """Over the two ends and, per coordinate c_i + A_i cos(theta - phi_i),
    every extremum within the sweep (the candidates in that order).

    Each extremum is tried at its first angle from the sweep's start and one
    turn later: a sweep under two turns meets it no more often, and a longer
    one meets every extremum in its first turn.  So the work is bounded for
    any finite angles, also where adding 2 pi no longer changes them."""
    radius, theta0, theta1 = (np.asarray(f)[..., None] for f in (radius, theta0, theta1))
    ends = _arc_points(np.array([0.0, 1.0]), center[..., None, :], radius,
                       x[..., None, :], y[..., None, :], theta0, theta1)
    axis_ok = ~((np.abs(x) < 1e-15) & (np.abs(y) < 1e-15))[..., None, None]
    phi = np.arctan2(y, x)
    th = np.stack([phi, phi + np.pi], axis=-1)            # (..., axis, extremum)
    lo_t, hi_t = np.minimum(theta0, theta1)[..., None], np.maximum(theta0, theta1)[..., None]
    th = (th + np.ceil((lo_t - th) / TAU) * TAU)[..., None] + np.array([0.0, TAU])
    keep = axis_ok & (th <= hi_t[..., None] + 1e-15)      # (..., axis, extremum, turn)
    theta0, theta1 = theta0[..., None, None], theta1[..., None, None]
    u = (th - theta0) / (theta1 - theta0)
    extremes = np.where(keep[..., None], _arc_points(
        np.clip(u, 0.0, 1.0), center[..., None, None, None, :], radius[..., None, None],
        x[..., None, None, None, :], y[..., None, None, None, :], theta0, theta1), np.nan)
    return _bbox(np.concatenate([ends, extremes.reshape(ends.shape[:-2] + (-1, 3))], axis=-2))


def _plane_points(u, v, origin, u_vec, v_vec):
    return (origin + np.asarray(u, dtype=float)[..., None] * u_vec
            + np.asarray(v, dtype=float)[..., None] * v_vec)


def _plane_partials(u, v, _origin, u_vec, v_vec):
    return _constant(u_vec, u, v), _constant(v_vec, u, v)


def _cylinder_points(u, v, center, radius, x, y, axis, *_):
    return (_circle(np.asarray(u, dtype=float), center, radius, x, y)
            + np.asarray(v, dtype=float)[..., None] * axis)


def _cylinder_partials(u, v, _center, radius, x, y, axis, *_):
    u = np.asarray(u, dtype=float)
    pu = np.asarray(radius)[..., None] * (-np.sin(u)[..., None] * x + np.cos(u)[..., None] * y)
    return pu, _constant(axis, u, v)


def _blend(basis, control):
    """Points (..., 3) of 16-term tensor bases (..., 16), as `_tensor_basis`
    builds them, on control nets (..., 4, 4, 3).  Each sums its terms
    (bu_i bv_j) control_ij in i-major order, bit for bit as
    np.einsum("...i,...j,ijk->...k") does on one net."""
    return np.einsum("...i,...ik->...k", basis, control.reshape(control.shape[:-3] + (16, 3)))


def _bicubic_points(u, v, control):
    return _blend(_tensor_basis(_bernstein3(u), _bernstein3(v)), control)


def _bicubic_partials(u, v, control):
    bu, bv = _bernstein3(u), _bernstein3(v)
    return (_blend(_tensor_basis(_bernstein3_deriv(u), bv), control),
            _blend(_tensor_basis(bu, _bernstein3_deriv(v)), control))


def _arc2_points(t, center, radius, phi0, phi1):
    phi = phi0 + np.asarray(t, dtype=float) * (phi1 - phi0)
    return center + np.asarray(radius)[..., None] * np.stack([np.cos(phi), np.sin(phi)], axis=-1)


def _arc2_tangents(t, _center, radius, phi0, phi1):
    dphi = phi1 - phi0
    phi = phi0 + np.asarray(t, dtype=float) * dphi
    return np.asarray(radius * dphi)[..., None] * np.stack([-np.sin(phi), np.cos(phi)], axis=-1)


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
        return _linear(u, self.p0, self.p1)

    def bbox(self):
        return _linear_bbox(self.p0, self.p1)


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

    def point(self, u):
        return _arc_points(u, self.center, self.radius, self.x_axis, self.y_axis,
                           self.theta0, self.theta1)

    def bbox(self):
        return _arc_bbox(self.center, self.radius, self.x_axis, self.y_axis,
                         self.theta0, self.theta1)


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
        return _piecewise(u, self.points, 0, self.points.shape[0] - 1)

    def bbox(self):
        return _piecewise_bbox(self.points, 0)


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
        (a1, a2, a3), (b1, b2, b3) = self.u_vec.tolist(), self.v_vec.tolist()
        if (math.hypot(a2 * b3 - a3 * b2, a3 * b1 - a1 * b3, a1 * b2 - a2 * b1)
                <= 1e-9 * math.hypot(a1, a2, a3) * math.hypot(b1, b2, b3)):
            raise GeometryError("plane spans must be non-zero and not parallel")

    def domain(self):
        return (0.0, 1.0, 0.0, 1.0)

    def point(self, u, v):
        return _plane_points(u, v, self.origin, self.u_vec, self.v_vec)

    def partials(self, u, v):
        return _plane_partials(u, v, self.origin, self.u_vec, self.v_vec)

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
        if not self.axis.any():
            raise GeometryError("cylinder axis must be non-zero")
        if self.u1 == self.u0:
            raise GeometryError("cylinder sweep must be non-zero")

    def domain(self):
        return (self.u0, self.u1, 0.0, 1.0)

    def point(self, u, v):
        return _cylinder_points(u, v, self.center, self.radius, self.x_axis, self.y_axis,
                                self.axis)

    def partials(self, u, v):
        return _cylinder_partials(u, v, self.center, self.radius, self.x_axis, self.y_axis,
                                  self.axis)


@dataclass(frozen=True, eq=False)
class BicubicPatch:
    """Bicubic tensor-product Bezier patch over [0,1]^2."""

    control: np.ndarray  # (4, 4, 3): control[i][j] pairs B_i(u) with B_j(v)

    kind = "bicubic"

    def __post_init__(self):
        # C order: `_blend` sums in the order the einsum takes on such an array
        c = np.ascontiguousarray(_points(self.control, (4, 4, 3), "control points"))
        object.__setattr__(self, "control", c)

    def domain(self):
        return (0.0, 1.0, 0.0, 1.0)

    def point(self, u, v):
        return _bicubic_points(u, v, self.control)

    def partials(self, u, v):
        return _bicubic_partials(u, v, self.control)

    def blend(self, basis):
        """Points (..., 3) of 16-term tensor bases (..., 16); see `_blend`."""
        return _blend(basis, self.control)


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
        return _linear(t, self.a, self.b)

    def tangent(self, t):
        return _linear_tangent(t, self.a, self.b)


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
        if self.phi1 == self.phi0:
            raise GeometryError("arc sweep must be non-zero")

    def point(self, t):
        return _arc2_points(t, self.center, self.radius, self.phi0, self.phi1)

    def tangent(self, t):
        return _arc2_tangents(t, self.center, self.radius, self.phi0, self.phi1)


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
        return _piecewise(t, self.points, 0, self.points.shape[0] - 1)

    def tangent(self, t):
        return _piecewise_tangent(t, self.points, 0, self.points.shape[0] - 1)


# kind -> class, for every geometry a model file may name.  The dataclass
# fields, in declaration order, are a record's keys after "kind".
KINDS = {cls.kind: cls for cls in (LineSegment, CircularArc, PolylineCurve,
                                   Plane, CylinderPatch, BicubicPatch,
                                   Segment2, Arc2, Poly2)}


# ---------------------------------------------------------------------------
# Batched evaluation: each kind's kernel, once, on the stacked fields of all
# its objects
# ---------------------------------------------------------------------------

_POINTS = {LineSegment: _linear, CircularArc: _arc_points, PolylineCurve: _piecewise,
           Plane: _plane_points, CylinderPatch: _cylinder_points, BicubicPatch: _bicubic_points,
           Segment2: _linear, Arc2: _arc2_points, Poly2: _piecewise}
_TANGENTS = {Segment2: _linear_tangent, Arc2: _arc2_tangents, Poly2: _piecewise_tangent}
_PARTIALS = {Plane: _plane_partials, CylinderPatch: _cylinder_partials,
             BicubicPatch: _bicubic_partials}
_BBOXES = {LineSegment: _linear_bbox, CircularArc: _arc_bbox, PolylineCurve: _piecewise_bbox}


def _groups(objs):
    """(indices, objects) of each class of ``objs``, in first-seen order."""
    by: dict = {}
    for i, o in enumerate(objs):
        by.setdefault(type(o), []).append(i)
    return [(idx, [objs[i] for i in idx]) for idx in by.values()]


def _stack(group, per_t: bool) -> list:
    """The fields of the objects of ``group`` (one class of KINDS), in
    declaration order, as arrays (K, field shape); ``per_t`` puts a unit axis
    after K, against parameters (K, T).  A point list, whose length varies,
    comes as the lists back to back, then each object's first row and
    segment count."""
    out = []
    for name in type(group[0]).__dataclass_fields__:
        vals = [getattr(o, name) for o in group]
        if name == "points":
            n = np.array([len(p) for p in vals])
            out.append(np.concatenate(vals))
            per_object = [np.cumsum(n) - n, n - 1]
        else:
            per_object = [np.array(vals, dtype=float)]
        out += [a[:, None] for a in per_object] if per_t else per_object
    return out


def _each(kernels: dict, group, *params, rows=None):
    """The kernel in ``kernels`` of ``group``'s class (one class of KINDS),
    called once on the stacked fields at each row of ``params``: row i belongs
    to object ``rows[i]``, or to object i if ``rows`` is None."""
    fields = _stack(group, bool(params) and np.ndim(params[0]) == 2)
    kernel = kernels[type(group[0])]
    return kernel(*params, *(fields if rows is None else [f[rows] for f in fields]))


def curve_points(curves, u, forward) -> np.ndarray:
    """``point(u)`` of several curves at shared u -> (K, T, 3); curve i runs
    at ``1.0 - u`` where ``forward[i]`` is false, as a reverse half-edge does."""
    u = np.asarray(u, dtype=float).reshape(-1)
    fwd = np.asarray(forward, dtype=bool)
    out = np.empty((len(curves), u.size, 3))
    for idx, group in _groups(curves):
        out[idx] = _each(_POINTS, group, np.where(fwd[idx, None], u, 1.0 - u))
    return out


def curve_bboxes(curves):
    """``bbox()`` of several curves -> (lo, hi), each (K, 3)."""
    lo, hi = np.empty((len(curves), 3)), np.empty((len(curves), 3))
    for idx, group in _groups(curves):
        lo[idx], hi[idx] = _each(_BBOXES, group)
    return lo, hi


def surface_points(surfaces, k, u, v) -> np.ndarray:
    """``surfaces[k[i]].point(u[i], v[i])`` for every i -> (N, 3)."""
    k = np.asarray(k, dtype=int)
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    out = np.empty((k.size, 3))
    slot = np.empty(len(surfaces), dtype=int)
    for idx, group in _groups(surfaces):
        slot[idx] = np.arange(len(idx))
        sel = np.flatnonzero(np.isin(k, idx))
        if sel.size:
            out[sel] = _each(_POINTS, group, u[sel], v[sel], rows=slot[k[sel]])
    return out


def surface_midpoint_norms(surfaces):
    """``domain()`` of each surface, (S, 4), and the norms of its ``partials``
    at the domain's midpoint, (S, 2), as ``np.linalg.norm`` takes them (one
    dot product per vector)."""
    dom = np.array([s.domain() for s in surfaces], dtype=float).reshape(-1, 4)
    mid = 0.5 * (dom[:, 0::2] + dom[:, 1::2])
    norms = np.empty((len(surfaces), 2))
    for idx, group in _groups(surfaces):
        pu, pv = _each(_PARTIALS, group, mid[idx, 0], mid[idx, 1])
        norms[idx] = np.sqrt(np.stack([np.vecdot(pu, pu), np.vecdot(pv, pv)], axis=1))
    return dom, norms


def pcurve_points(pcurves, t, tangent: bool = False) -> np.ndarray:
    """``point(t)`` (or ``tangent(t)``) of several pcurves at shared t -> (K, T, 2)."""
    t = np.asarray(t, dtype=float).reshape(-1)
    out = np.empty((len(pcurves), t.size, 2))
    kernels = _TANGENTS if tangent else _POINTS
    for idx, group in _groups(pcurves):
        out[idx] = _each(kernels, group, t[None].repeat(len(idx), axis=0))
    return out


# ---------------------------------------------------------------------------
# Objects from stacked fields, and the similarity transform over them
# ---------------------------------------------------------------------------

def _refuse(bad, message: str) -> None:
    """GeometryError ``message`` when any entry of ``bad`` is true."""
    if np.any(bad):
        raise GeometryError(message)


# Each kind's constructor rules beyond finiteness, row by row over the
# stacked fields of its objects (unit axes already unit).

def _arc_rules(_center, radius, x, y, theta0, theta1):
    _refuse(radius <= 0, "arc radius must be positive")
    _refuse(theta1 == theta0, "arc sweep must be non-zero")
    _refuse(np.abs(np.vecdot(x, y)) > 1e-9, "arc frame axes must be orthogonal")


def _plane_rules(_origin, u_vec, v_vec):
    (a1, a2, a3), (b1, b2, b3) = u_vec.T, v_vec.T
    cross = np.hypot(np.hypot(a2 * b3 - a3 * b2, a3 * b1 - a1 * b3), a1 * b2 - a2 * b1)
    _refuse(cross <= 1e-9 * np.hypot(np.hypot(a1, a2), a3) * np.hypot(np.hypot(b1, b2), b3),
            "plane spans must be non-zero and not parallel")


def _cylinder_rules(_center, radius, _x, _y, axis, u0, u1):
    _refuse(radius <= 0, "cylinder radius must be positive")
    _refuse(~axis.any(axis=-1), "cylinder axis must be non-zero")
    _refuse(u1 == u0, "cylinder sweep must be non-zero")


_RULES = {CircularArc: _arc_rules, Plane: _plane_rules, CylinderPatch: _cylinder_rules}


def _unit_rows(v) -> np.ndarray:
    """`_unit` of each row of ``v`` (K, 3), bit for bit: np.linalg.norm takes
    a vector's norm as the root of one dot product, as np.vecdot does."""
    _refuse(~np.isfinite(v), "non-finite coordinates")
    n = np.sqrt(np.vecdot(v, v))[:, None]
    _refuse(n < 1e-12, "zero-length direction vector")
    return v / n


def _build(cls, fields) -> list:
    """Objects of ``cls`` (a curve or surface class, or `Poly2`) from its
    ``fields`` stacked as `_stack` lays them out (no parameter axis): object
    k takes row k of each array, a point list its own run of rows, as views.
    Each rule of the constructor is checked once per array; the objects are
    made without it."""
    fields = iter(fields)
    cols = {}
    for name in cls.__dataclass_fields__:
        a = next(fields)
        if name in ("x_axis", "y_axis"):
            a = _unit_rows(a)
        elif not np.isfinite(a).all():
            raise GeometryError(f"non-finite {name}")
        if name == "points":
            first, nseg = next(fields), next(fields)
            _refuse(nseg < 1, f"{cls.kind} needs at least 2 points")
            a = [a[f: f + n + 1] for f, n in zip(first.tolist(), nseg.tolist())]
        elif name == "control":
            a = np.ascontiguousarray(a)     # as the constructor stores it
        cols[name] = a
    if cls in _RULES:
        _RULES[cls](*cols.values())
    objs = [object.__new__(cls) for _ in range(len(next(iter(cols.values()))))]
    for name, a in cols.items():
        scalar = isinstance(a, np.ndarray) and a.ndim == 1
        for obj, value in zip(objs, a.tolist() if scalar else a):
            obj.__dict__[name] = value
    return objs


# How p -> (p - offset) * scale moves a field; fields not named here stay.
_SHIFTED = frozenset({"p0", "p1", "center", "points", "origin", "control"})
_SCALED = frozenset({"radius", "u_vec", "v_vec", "axis"})


def similarity(objs, offset, scale: float) -> list:
    """Each curve or surface of ``objs`` (classes of KINDS) mapped by
    p -> (p - offset) * scale, one pass per kind over its stacked fields.
    Parameter domains stay, so pcurves stay valid."""
    if not objs:
        return []
    offset, scale = _vec(offset), _finite(float(scale), "scale")
    out = [None] * len(objs)
    for idx, group in _groups(objs):
        cls = type(group[0])
        fields = iter(_stack(group, False))
        moved = []
        for name in cls.__dataclass_fields__:
            a = next(fields)
            moved.append((a - offset) * scale if name in _SHIFTED else
                         a * scale if name in _SCALED else a)
            if name == "points":                 # its first rows and segment counts
                moved += [next(fields), next(fields)]
        for i, obj in zip(idx, _build(cls, moved)):
            out[i] = obj
    return out
