import numpy as np
import pytest
from hypothesis import given, strategies as st

from brepcodec.geometry import (
    TAU,
    Arc2,
    _bernstein3,
    _bernstein3_deriv,
    BicubicPatch,
    CircularArc,
    CylinderPatch,
    GeometryError,
    LineSegment,
    Plane,
    Poly2,
    PolylineCurve,
    Segment2,
    _finite,
    curve_bboxes,
    curve_points,
    pcurve_points,
    surface_midpoint_norms,
    surface_points,
)


# ---------------------------------------------------------------------------
# Reference: each kind's per-object formulas as written before the object
# methods and the batched evaluators came to share one kernel per kind, kept
# verbatim (``self`` is the object) as an independent bit-for-bit oracle for
# both paths.
# ---------------------------------------------------------------------------

def line_point(self, u):
    u = np.asarray(u, dtype=float)
    return self.p0 + np.multiply.outer(u, self.p1 - self.p0)


def line_bbox(self):
    pts = np.stack([self.p0, self.p1])
    return pts.min(axis=0), pts.max(axis=0)


def arc_theta(self, u):
    u = np.asarray(u, dtype=float)
    return self.theta0 + u * (self.theta1 - self.theta0)


def arc_point(self, u):
    th = arc_theta(self, u)
    return (
        self.center
        + self.radius * np.multiply.outer(np.cos(th), self.x_axis)
        + self.radius * np.multiply.outer(np.sin(th), self.y_axis)
    )


def arc_bbox(self):
    lo_t, hi_t = sorted((self.theta0, self.theta1))
    pts = [arc_point(self, 0.0), arc_point(self, 1.0)]
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
                pts.append(arc_point(self, float(np.clip(u, 0.0, 1.0))))
                th += TAU
    pts = np.stack(pts)
    return pts.min(axis=0), pts.max(axis=0)


def polyline_point(self, u):
    u = np.asarray(u, dtype=float)
    nseg = self.points.shape[0] - 1
    s = np.clip(u, 0.0, 1.0) * nseg
    i = np.clip(np.floor(s).astype(int), 0, nseg - 1)
    f = s - i
    return self.points[i] + f[..., None] * (self.points[i + 1] - self.points[i])


def polyline_bbox(self):
    return self.points.min(axis=0), self.points.max(axis=0)


def plane_point(self, u, v):
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return (
        self.origin
        + np.multiply.outer(u, self.u_vec)
        + np.multiply.outer(v, self.v_vec)
    )


def plane_partials(self, u, v):
    u = np.asarray(u, dtype=float)
    shape = np.broadcast(u, np.asarray(v, dtype=float)).shape
    pu = np.broadcast_to(self.u_vec, shape + (3,)).copy()
    pv = np.broadcast_to(self.v_vec, shape + (3,)).copy()
    return pu, pv


def cylinder_point(self, u, v):
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return (
        self.center
        + self.radius * np.multiply.outer(np.cos(u), self.x_axis)
        + self.radius * np.multiply.outer(np.sin(u), self.y_axis)
        + np.multiply.outer(v, self.axis)
    )


def cylinder_partials(self, u, v):
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    pu = self.radius * (
        np.multiply.outer(-np.sin(u), self.x_axis)
        + np.multiply.outer(np.cos(u), self.y_axis)
    )
    shape = np.broadcast(u, v).shape
    pv = np.broadcast_to(self.axis, shape + (3,)).copy()
    return pu, pv


def bicubic_point(self, u, v):
    # the three-operand einsum: each output sums bu_i bv_j control_ij over i, j
    return np.einsum("...i,...j,ijk->...k", _bernstein3(u), _bernstein3(v), self.control)


def bicubic_partials(self, u, v):
    bu = _bernstein3(u)
    bv = _bernstein3(v)
    return (np.einsum("...i,...j,ijk->...k", _bernstein3_deriv(u), bv, self.control),
            np.einsum("...i,...j,ijk->...k", bu, _bernstein3_deriv(v), self.control))


def seg2_point(self, t):
    t = np.asarray(t, dtype=float)
    return self.a + np.multiply.outer(t, self.b - self.a)


def seg2_tangent(self, t):
    t = np.asarray(t, dtype=float)
    return np.broadcast_to(self.b - self.a, t.shape + (2,)).copy()


def arc2_point(self, t):
    t = np.asarray(t, dtype=float)
    phi = self.phi0 + t * (self.phi1 - self.phi0)
    return self.center + self.radius * np.stack([np.cos(phi), np.sin(phi)], axis=-1)


def arc2_tangent(self, t):
    t = np.asarray(t, dtype=float)
    phi = self.phi0 + t * (self.phi1 - self.phi0)
    dphi = self.phi1 - self.phi0
    return self.radius * dphi * np.stack([-np.sin(phi), np.cos(phi)], axis=-1)


def poly2_tangent(self, t):
    t = np.asarray(t, dtype=float)
    nseg = self.points.shape[0] - 1
    s = np.clip(t, 0.0, 1.0) * nseg
    i = np.clip(np.floor(s).astype(int), 0, nseg - 1)
    return (self.points[i + 1] - self.points[i]) * nseg


REF_POINT = {LineSegment: line_point, CircularArc: arc_point, PolylineCurve: polyline_point,
             Plane: plane_point, CylinderPatch: cylinder_point, BicubicPatch: bicubic_point,
             Segment2: seg2_point, Arc2: arc2_point, Poly2: polyline_point}
REF_BBOX = {LineSegment: line_bbox, CircularArc: arc_bbox, PolylineCurve: polyline_bbox}
REF_PARTIALS = {Plane: plane_partials, CylinderPatch: cylinder_partials,
                BicubicPatch: bicubic_partials}
REF_TANGENT = {Segment2: seg2_tangent, Arc2: arc2_tangent, Poly2: poly2_tangent}


def bitwise(a, b) -> bool:
    """Same shape and the same bits (signed zeros and NaN payloads too)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def random_frame(rng):
    x = rng.normal(size=3)
    x /= np.linalg.norm(x)
    return x, np.cross(x, rng.normal(size=3))


def random_curves(rng):
    curves = [CircularArc((0, 0, 0), 1.0, (1, 0, 0), (0, 1, 0), 0.0, TAU),
              CircularArc((0, 0, 0), 1.0, (1, 0, 0), (0, 0, 1), 0.0, 0.5)]
    for sweep in (0.7, -2.5, TAU, -TAU, 9.0):
        x, y = random_frame(rng)
        t0 = rng.uniform(-TAU, TAU)
        curves.append(LineSegment(rng.normal(size=3), rng.normal(size=3)))
        curves.append(CircularArc(rng.normal(size=3), rng.uniform(0.1, 2.0), x, y,
                                  t0, t0 + sweep))
        curves.append(PolylineCurve(rng.normal(size=(int(rng.integers(2, 6)), 3))))
    return curves


def random_surfaces(rng):
    surfaces = []
    for _ in range(4):
        x, y = random_frame(rng)
        u0 = rng.uniform(-TAU, TAU)
        surfaces += [Plane(rng.normal(size=3), rng.normal(size=3), rng.normal(size=3)),
                     CylinderPatch(rng.normal(size=3), rng.uniform(0.1, 2.0), x, y,
                                   rng.normal(size=3), u0, u0 + rng.uniform(0.5, TAU)),
                     BicubicPatch(10.0 ** rng.uniform(-3, 3) * rng.normal(size=(4, 4, 3)))]
    return surfaces


def random_pcurves(rng):
    pcs = []
    for _ in range(6):
        pcs.append(Segment2(rng.normal(size=2), rng.normal(size=2)))
        pcs.append(Arc2(rng.normal(size=2), rng.uniform(0.1, 2.0),
                        rng.uniform(-TAU, TAU), rng.uniform(-TAU, TAU)))
        pcs.append(Poly2(rng.normal(size=(int(rng.integers(2, 6)), 2))))
    return pcs


class TestCurves:
    def test_line_evaluation(self):
        c = LineSegment((0, 0, 0), (2, 0, 0))
        assert np.allclose(c.point(0.25), [0.5, 0, 0])
        assert np.allclose(c.point([0.0, 1.0]), [[0, 0, 0], [2, 0, 0]])

    def test_arc_quarter_circle(self):
        c = CircularArc((0, 0, 0), 1.0, (1, 0, 0), (0, 1, 0), 0.0, np.pi / 2)
        assert np.allclose(c.point(0.0), [1, 0, 0])
        assert np.allclose(c.point(1.0), [0, 1, 0])
        assert np.allclose(c.point(0.5), [np.sqrt(0.5), np.sqrt(0.5), 0])

    def test_arc_points_exactly_on_circle(self):
        c = CircularArc((1, 2, 3), 0.7, (1, 0, 0), (0, 0, 1), 0.3, 5.1)
        pts = c.point(np.linspace(0, 1, 257))
        r = np.linalg.norm(pts - np.array([1, 2, 3]), axis=1)
        assert np.abs(r - 0.7).max() < 1e-12

    def test_arc_bbox_covers_extremes(self):
        c = CircularArc((0, 0, 0), 1.0, (1, 0, 0), (0, 1, 0), 0.0, TAU)
        lo, hi = c.bbox()
        assert np.allclose(lo, [-1, -1, 0])
        assert np.allclose(hi, [1, 1, 0])
        # partial arc misses the -x extreme
        c2 = CircularArc((0, 0, 0), 1.0, (1, 0, 0), (0, 1, 0), -0.1, 0.1)
        lo2, hi2 = c2.bbox()
        assert np.isclose(hi2[0], 1.0)
        assert lo2[0] > 0.9

    def test_polyline_evaluation(self):
        c = PolylineCurve([(0, 0, 0), (1, 0, 0), (1, 1, 0)])
        assert np.allclose(c.point(0.25), [0.5, 0, 0])
        assert np.allclose(c.point(0.75), [1, 0.5, 0])

    def test_degenerate_inputs_raise(self):
        with pytest.raises(GeometryError):
            CircularArc((0, 0, 0), 0.0, (1, 0, 0), (0, 1, 0), 0, 1)
        with pytest.raises(GeometryError, match="sweep must be non-zero"):
            CircularArc((0, 0, 0), 1.0, (1, 0, 0), (0, 1, 0), 0.5, 0.5)
        with pytest.raises(GeometryError):
            PolylineCurve([(0, 0, 0)])
        with pytest.raises(GeometryError):
            LineSegment((0, 0, np.nan), (1, 0, 0))
        for radius in (0.0, -0.25):
            with pytest.raises(GeometryError, match="radius must be positive"):
                Arc2((0.5, 0.5), radius, 0.0, 1.0)
        with pytest.raises(GeometryError, match="sweep must be non-zero"):
            Arc2((0.5, 0.5), 0.25, 1.5, 1.5)
        for u_vec, v_vec in [((0, 0, 0), (0, 1, 0)), ((1, 2, 0), (1, 2, 0)),
                             ((1, 0, 0), (-3, 0, 0)), ((1, 0, 0), (1, 1e-10, 0))]:
            with pytest.raises(GeometryError, match="plane spans"):
                Plane((0, 0, 0), u_vec, v_vec)
        Plane((0, 0, 0), (1e-10, 0, 0), (0, 1e-10, 0))      # tiny but square spans stand
        with pytest.raises(GeometryError, match="axis must be non-zero"):
            CylinderPatch((0, 0, 0), 1.0, (1, 0, 0), (0, 1, 0), (0, 0, 0), 0.0, TAU)
        with pytest.raises(GeometryError, match="sweep must be non-zero"):
            CylinderPatch((0, 0, 0), 1.0, (1, 0, 0), (0, 1, 0), (0, 0, 1), 2.0, 2.0)

    def test_transform_exactness(self):
        c = CircularArc((1, 1, 1), 2.0, (1, 0, 0), (0, 1, 0), 0.2, 1.2)
        t = c.transformed((1, 1, 1), 0.5)
        u = np.linspace(0, 1, 17)
        assert np.allclose(t.point(u), (c.point(u) - np.array([1, 1, 1])) * 0.5)


class TestSurfaces:
    def test_plane_point_and_inverse(self):
        s = Plane((0, 0, 0), (1, 0, 0), (0, 1, 0))
        p = s.point(0.3, 0.7)
        assert np.allclose(p, [0.3, 0.7, 0])
        assert np.allclose(s.uv_of_point(p), [0.3, 0.7])

    def test_cylinder_point_and_partials(self):
        s = CylinderPatch((0, 0, 0), 0.5, (1, 0, 0), (0, 1, 0), (0, 0, 1), 0, TAU)
        assert np.allclose(s.point(0.0, 0.2), [0.5, 0, 0.2])
        pu, pv = s.partials(0.0, 0.2)
        n = np.cross(pu, pv)
        assert np.allclose(n / np.linalg.norm(n), [1, 0, 0])

    def test_bicubic_matches_the_three_operand_einsum(self):
        # the reference: each output sums bu_i bv_j control_ij over i, j
        def reference(bu, bv, control):
            return np.einsum("...i,...j,ijk->...k", bu, bv, control)

        rng = np.random.default_rng(21)
        g = np.linspace(0.0, 1.0, 33)
        grid = np.meshgrid(g, g, indexing="ij")
        uvs = [(grid[0].ravel(), grid[1].ravel()), (rng.random(100), rng.random(100)),
               (rng.random((5, 7)), rng.random((5, 7))), (rng.random(1), rng.random(1)),
               (0.3, 0.7), (0.25, rng.random(9)), (1.0, 0.0)]
        for scale in (1e-3, 1.0, 1e3):
            for _ in range(20):
                s = BicubicPatch(scale * rng.normal(size=(4, 4, 3)))
                for u, v in uvs:
                    bu, bv = _bernstein3(u), _bernstein3(v)
                    assert np.array_equal(s.point(u, v), reference(bu, bv, s.control))
                    pu, pv = s.partials(u, v)
                    assert np.array_equal(pu, reference(_bernstein3_deriv(u), bv, s.control))
                    assert np.array_equal(pv, reference(bu, _bernstein3_deriv(v), s.control))

    def test_bicubic_planar_degeneracy(self):
        grid = np.zeros((4, 4, 3))
        g = np.linspace(0, 1, 4)
        grid[..., 0] = g[:, None]
        grid[..., 1] = g[None, :]
        grid[..., 2] = 1.0
        s = BicubicPatch(grid)
        uu, vv = np.meshgrid(np.linspace(0, 1, 9), np.linspace(0, 1, 9))
        pts = s.point(uu, vv)
        assert np.abs(pts[..., 2] - 1.0).max() < 1e-12


class TestPcurves:
    def test_segment2(self):
        pc = Segment2((0, 0), (2, 2))
        assert np.allclose(pc.point(0.5), [1, 1])
        assert np.allclose(pc.tangent(0.1), [2, 2])

    def test_arc2_full_circle(self):
        pc = Arc2((0.5, 0.5), 0.25, 0.0, TAU)
        pts = pc.point(np.linspace(0, 1, 64))
        r = np.linalg.norm(pts - np.array([0.5, 0.5]), axis=1)
        assert np.abs(r - 0.25).max() < 1e-12

    def test_poly2(self):
        pc = Poly2([(0, 0), (1, 0), (1, 1)])
        assert np.allclose(pc.point(0.75), [1, 0.5])

    def test_batched_points_match_each_curve_bitwise(self):
        rng = np.random.default_rng(5)
        pcs = random_pcurves(rng)
        t = np.concatenate([np.linspace(0.0, 1.0, 33), rng.uniform(0, 1, 7)])
        assert bitwise(pcurve_points(pcs, t), np.stack([REF_POINT[type(pc)](pc, t) for pc in pcs]))
        assert bitwise(pcurve_points(pcs, t, tangent=True),
                       np.stack([REF_TANGENT[type(pc)](pc, t) for pc in pcs]))


class TestBatchedEvaluation:
    """The object methods and the batched evaluators, which share one kernel
    per kind, against the reference formulas above, bit for bit."""

    def test_curves_match_each_curve_bitwise(self):
        rng = np.random.default_rng(6)
        curves = random_curves(rng)
        u = np.concatenate([np.linspace(0.0, 1.0, 33), rng.uniform(0, 1, 7)])
        for forward in (np.ones(len(curves), bool), np.arange(len(curves)) % 2 == 0):
            assert bitwise(curve_points(curves, u, forward),
                           np.stack([REF_POINT[type(c)](c, u if f else 1.0 - u)
                                     for c, f in zip(curves, forward)]))
        expect = [REF_BBOX[type(c)](c) for c in curves]
        assert all(bitwise(c.bbox(), box) for c, box in zip(curves, expect))
        lo, hi = curve_bboxes(curves)
        assert bitwise(lo, [box[0] for box in expect]) and bitwise(hi, [box[1] for box in expect])

    def test_surfaces_match_each_surface_bitwise(self):
        rng = np.random.default_rng(7)
        surfaces = random_surfaces(rng)
        k = rng.integers(0, len(surfaces), 500)
        u, v = rng.uniform(-1.0, 7.0, 500), rng.uniform(0.0, 1.0, 500)
        expect = np.empty((500, 3))
        for i, s in enumerate(surfaces):
            expect[k == i] = REF_POINT[type(s)](s, u[k == i], v[k == i])
        assert bitwise(surface_points(surfaces, k, u, v), expect)
        dom, norms = surface_midpoint_norms(surfaces)
        for s, d, n in zip(surfaces, dom, norms):
            u0, u1, v0, v1 = s.domain()
            assert tuple(d) == (u0, u1, v0, v1)
            pu, pv = REF_PARTIALS[type(s)](s, 0.5 * (u0 + u1), 0.5 * (v0 + v1))
            assert bitwise(n, [np.linalg.norm(pu), np.linalg.norm(pv)])

    @pytest.mark.parametrize("shape", [(), (1,), (9,), (5, 7)], ids=["scalar", "one", "1d", "2d"])
    def test_object_methods_keep_their_shapes(self, shape):
        rng = np.random.default_rng(8)
        u, v = rng.random(shape), rng.random(shape)
        if not shape:
            u, v = float(u), float(v)
        for obj in random_curves(rng) + random_surfaces(rng) + random_pcurves(rng):
            kind = type(obj)
            params = (u, v) if kind in REF_PARTIALS else (u,)
            assert bitwise(obj.point(*params), REF_POINT[kind](obj, *params)), kind
            if kind in REF_PARTIALS:
                assert all(map(bitwise, obj.partials(u, v), REF_PARTIALS[kind](obj, u, v)))
                # one parameter scalar, the other an array
                assert all(map(bitwise, obj.partials(0.5, v), REF_PARTIALS[kind](obj, 0.5, v)))
            if kind in REF_TANGENT:
                assert bitwise(obj.tangent(u), REF_TANGENT[kind](obj, u)), kind

    def test_other_classes_are_called_object_by_object(self):
        class Wrapped:       # a class outside KINDS, delegating to one inside
            def __init__(self, inner):
                self.inner = inner

            def __getattr__(self, name):
                return getattr(self.inner, name)

        rng = np.random.default_rng(9)
        curves = [LineSegment(rng.normal(size=3), rng.normal(size=3)) for _ in range(3)]
        pcs = [Segment2(rng.normal(size=2), rng.normal(size=2)) for _ in range(3)]
        planes = [Plane(rng.normal(size=3), rng.normal(size=3), rng.normal(size=3))
                  for _ in range(3)]
        wrap = lambda objs: [objs[0], Wrapped(objs[1]), objs[2]]
        u, fwd, k = rng.random(11), [True, False, True], rng.integers(0, 3, 40)
        assert bitwise(curve_points(wrap(curves), u, fwd), curve_points(curves, u, fwd))
        assert all(map(bitwise, curve_bboxes(wrap(curves)), curve_bboxes(curves)))
        for tangent in (False, True):
            assert bitwise(pcurve_points(wrap(pcs), u, tangent), pcurve_points(pcs, u, tangent))
        uv = rng.random((2, 40))
        assert bitwise(surface_points(wrap(planes), k, *uv), surface_points(planes, k, *uv))
        assert all(map(bitwise, surface_midpoint_norms(wrap(planes)),
                       surface_midpoint_norms(planes)))


# Scalar fields and point lists reject NaN and infinity like vectors do.
@pytest.mark.parametrize("make", [
    lambda x: CircularArc((0, 0, 0), x, (1, 0, 0), (0, 1, 0), 0, 1),
    lambda x: CircularArc((0, 0, 0), 1, (1, 0, 0), (0, 1, 0), x, 1),
    lambda x: CircularArc((0, 0, 0), 1, (1, 0, 0), (0, 1, 0), 0, x),
    lambda x: CylinderPatch((0, 0, 0), x, (1, 0, 0), (0, 1, 0), (0, 0, 1), 0, 1),
    lambda x: CylinderPatch((0, 0, 0), 1, (1, 0, 0), (0, 1, 0), (0, 0, 1), x, 1),
    lambda x: CylinderPatch((0, 0, 0), 1, (1, 0, 0), (0, 1, 0), (0, 0, 1), 0, x),
    lambda x: Arc2((0, 0), x, 0, 1),
    lambda x: Arc2((0, 0), 1, x, 1),
    lambda x: Arc2((0, 0), 1, 0, x),
    lambda x: Poly2([(0, 0), (x, 1)]),
], ids=["arc.radius", "arc.theta0", "arc.theta1", "cylinder.radius",
        "cylinder.u0", "cylinder.u1", "arc2.radius", "arc2.phi0", "arc2.phi1",
        "poly2.points"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_fields_raise(make, bad):
    make(0.5)
    with pytest.raises(GeometryError, match="non-finite"):
        make(bad)


@pytest.mark.parametrize("size", [3, 64, 65])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_every_non_finite_entry_is_caught(size, bad):
    a = np.linspace(-1.0, 1.0, size)
    assert _finite(a, "points") is a
    for i in range(size):
        b = a.copy()
        b[i] = bad
        with pytest.raises(GeometryError, match="non-finite points"):
            _finite(b.reshape(-1, 1), "points")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_scalar_fields_raise(bad):
    assert type(Arc2((0, 0), 2, 0, 1).radius) is float
    with pytest.raises(GeometryError, match="non-finite radius"):
        Arc2((0, 0), bad, 0, 1)
    with pytest.raises(GeometryError, match="non-finite theta1"):
        CircularArc((0, 0, 0), 1, (1, 0, 0), (0, 1, 0), 0, bad)


@given(st.floats(0, 1), st.floats(0, 1))
def test_bicubic_interpolates_corners_badly_never(u, v):
    # patch values stay inside the control hull (convex-combination property)
    rng = np.random.default_rng(7)
    grid = rng.random((4, 4, 3))
    s = BicubicPatch(grid)
    p = s.point(u, v)
    flat = grid.reshape(16, 3)
    assert np.all(p >= flat.min(axis=0) - 1e-12)
    assert np.all(p <= flat.max(axis=0) + 1e-12)
