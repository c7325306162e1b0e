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


class TestCurves:
    def test_line_evaluation(self):
        c = LineSegment((0, 0, 0), (2, 0, 0))
        assert np.allclose(c.point(0.25), [0.5, 0, 0])
        assert np.allclose(c.point([0.0, 1.0]), [[0, 0, 0], [2, 0, 0]])
        assert c.length() == 2.0

    def test_arc_quarter_circle(self):
        c = CircularArc((0, 0, 0), 1.0, (1, 0, 0), (0, 1, 0), 0.0, np.pi / 2)
        assert np.allclose(c.point(0.0), [1, 0, 0])
        assert np.allclose(c.point(1.0), [0, 1, 0])
        assert np.allclose(c.point(0.5), [np.sqrt(0.5), np.sqrt(0.5), 0])
        assert np.isclose(c.length(), np.pi / 2)

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
        assert c.length() == 2.0

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
        pcs = []
        for _ in range(6):
            pcs.append(Segment2(rng.normal(size=2), rng.normal(size=2)))
            pcs.append(Arc2(rng.normal(size=2), rng.uniform(0.1, 2.0),
                            rng.uniform(-TAU, TAU), rng.uniform(-TAU, TAU)))
            pcs.append(Poly2(rng.normal(size=(int(rng.integers(2, 6)), 2))))
        t = np.concatenate([np.linspace(0.0, 1.0, 33), rng.uniform(0, 1, 7)])
        assert np.array_equal(pcurve_points(pcs, t), np.stack([pc.point(t) for pc in pcs]))
        assert np.array_equal(pcurve_points(pcs, t, tangent=True),
                              np.stack([pc.tangent(t) for pc in pcs]))


class TestBatchedEvaluation:
    """One array pass per kind against each object's own method, bit for bit."""

    def test_curves_match_each_curve_bitwise(self):
        rng = np.random.default_rng(6)
        curves = [CircularArc((0, 0, 0), 1.0, (1, 0, 0), (0, 1, 0), 0.0, TAU)]
        for sweep in (0.7, -2.5, TAU, -TAU, 9.0):
            x = rng.normal(size=3)
            x /= np.linalg.norm(x)
            y = np.cross(x, rng.normal(size=3))
            t0 = rng.uniform(-TAU, TAU)
            curves.append(LineSegment(rng.normal(size=3), rng.normal(size=3)))
            curves.append(CircularArc(rng.normal(size=3), rng.uniform(0.1, 2.0), x, y,
                                      t0, t0 + sweep))
            curves.append(PolylineCurve(rng.normal(size=(int(rng.integers(2, 6)), 3))))
        u = np.concatenate([np.linspace(0.0, 1.0, 33), rng.uniform(0, 1, 7)])
        for forward in (np.ones(len(curves), bool), np.arange(len(curves)) % 2 == 0):
            assert np.array_equal(curve_points(curves, u, forward),
                                  np.stack([c.point(u if f else 1.0 - u)
                                            for c, f in zip(curves, forward)]))
        lo, hi = curve_bboxes(curves)
        assert np.array_equal(lo, np.stack([c.bbox()[0] for c in curves]))
        assert np.array_equal(hi, np.stack([c.bbox()[1] for c in curves]))

    def test_surfaces_match_each_surface_bitwise(self):
        rng = np.random.default_rng(7)
        surfaces = []
        for _ in range(4):
            x = rng.normal(size=3)
            x /= np.linalg.norm(x)
            y = np.cross(x, rng.normal(size=3))
            u0 = rng.uniform(-TAU, TAU)
            surfaces += [Plane(rng.normal(size=3), rng.normal(size=3), rng.normal(size=3)),
                         CylinderPatch(rng.normal(size=3), rng.uniform(0.1, 2.0), x, y,
                                       rng.normal(size=3), u0, u0 + rng.uniform(0.5, TAU)),
                         BicubicPatch(rng.normal(size=(4, 4, 3)))]
        k = rng.integers(0, len(surfaces), 500)
        u, v = rng.uniform(-1.0, 7.0, 500), rng.uniform(0.0, 1.0, 500)
        expect = np.empty((500, 3))
        for i, s in enumerate(surfaces):
            expect[k == i] = s.point(u[k == i], v[k == i])
        assert np.array_equal(surface_points(surfaces, k, u, v), expect)
        dom, norms = surface_midpoint_norms(surfaces)
        for s, d, n in zip(surfaces, dom, norms):
            u0, u1, v0, v1 = s.domain()
            assert tuple(d) == (u0, u1, v0, v1)
            pu, pv = s.partials(0.5 * (u0 + u1), 0.5 * (v0 + v1))
            assert tuple(n) == (np.linalg.norm(pu), np.linalg.norm(pv))


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
