import numpy as np
import pytest

from brepcodec.geometry import CircularArc
from brepcodec.metrics import (
    PointCloud,
    _polyline_deviation,
    chamfer,
    cov_mmd,
    curve_error,
    jsd,
    novel_unique_valid,
    surface_sample,
)
from brepcodec.model import normalize, validate
from brepcodec.primitives import box, seam_cylinder, through_hole_box
from conftest import as_polyline_model


def grid_cloud(n=5, spacing=0.1):
    g = np.arange(n) * spacing
    xx, yy, zz = np.meshgrid(g, g, g, indexing="ij")
    return PointCloud(points=np.stack([xx, yy, zz], axis=-1).reshape(-1, 3))


class TestChamfer:
    def test_identical_clouds_zero(self):
        c = grid_cloud()
        assert chamfer(c, c) == 0.0

    def test_translation_gives_delta_squared(self):
        c = grid_cloud(spacing=0.1)
        delta = 1e-3   # far below half the 0.1 spacing
        shifted = PointCloud(points=c.points + np.array([delta, 0, 0]))
        assert np.isclose(chamfer(c, shifted), delta**2)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        a = PointCloud(points=rng.random((60, 3)))
        b = PointCloud(points=rng.random((80, 3)))
        assert chamfer(a, b) == chamfer(b, a)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            chamfer(PointCloud(points=np.zeros((0, 3))), grid_cloud())


class TestCovMmd:
    def test_identical_sets(self):
        clouds = [grid_cloud(), PointCloud(points=grid_cloud().points + 0.5)]
        cov, mmd = cov_mmd(clouds, clouds)
        assert cov == 1.0
        assert mmd == 0.0

    def test_single_generated_covers_one(self):
        ref = [grid_cloud(), PointCloud(points=grid_cloud().points + 0.7),
               PointCloud(points=grid_cloud().points + 1.5)]
        cov, _ = cov_mmd([ref[1]], ref)
        assert np.isclose(cov, 1.0 / 3.0)

    def test_small_sets_match_bruteforce(self):
        rng = np.random.default_rng(4)
        gen = [PointCloud(points=rng.random((40, 3))) for _ in range(3)]
        ref = [PointCloud(points=rng.random((40, 3))) for _ in range(2)]
        cov, mmd = cov_mmd(gen, ref)

        # independent table: double loop over squared nearest neighbors
        def cd(a, b):
            d_ab = ((a[:, None, :] - b[None, :, :]) ** 2).sum(-1)
            return 0.5 * (d_ab.min(1).mean() + d_ab.min(0).mean())

        table = np.array([[cd(g.points, r.points) for r in ref] for g in gen])
        hit = {int(i) for i in table.argmin(axis=1)}
        assert np.isclose(cov, len(hit) / len(ref))
        assert np.isclose(mmd, table.min(axis=0).mean())


class TestJsd:
    def test_identical_zero(self):
        clouds = [grid_cloud()]
        assert jsd(clouds, clouds) == 0.0

    def test_disjoint_corners_one_bit(self):
        a = [PointCloud(points=np.full((100, 3), 0.01))]
        b = [PointCloud(points=np.full((100, 3), 0.99))]
        assert np.isclose(jsd(a, b), 1.0)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        s = [PointCloud(points=rng.random((50, 3))) for _ in range(4)]
        t = [PointCloud(points=rng.random((50, 3))) for _ in range(4)]
        assert jsd(s, t) == jsd(list(reversed(s)), t)
        assert jsd(s, t) >= 0.0


class TestNovelUniqueValid:
    def test_copy_of_training_not_novel(self):
        m = box()
        key = ("sig", 1)
        novel, unique, valid = novel_unique_valid(
            [m], {key}, canonical_key=lambda _: key)
        assert novel == 0.0
        assert unique == 1.0
        assert valid == 1.0

    def test_distinct_models_unique(self):
        models = [box(size=(1, 1, 1)), box(size=(1.2, 1, 1)), seam_cylinder()]
        novel, unique, valid = novel_unique_valid(
            models, set(), canonical_key=lambda m: id(m))
        assert unique == 1.0 and novel == 1.0

    def test_open_shell_counts_invalid(self):
        import dataclasses

        good = box()
        bad = type(good)(vertices=good.vertices, edges=list(good.edges),
                         halfedges=list(good.halfedges),
                         loops=list(good.loops), faces=list(good.faces),
                         shells=good.shells)
        bad.halfedges[0] = dataclasses.replace(bad.halfedges[0], twin=0)
        assert not validate(bad).watertight
        models = [good, good, bad]
        _, _, valid = novel_unique_valid(models, set(),
                                         canonical_key=lambda m: id(m))
        assert np.isclose(valid, 2.0 / 3.0)


class TestSurfaceSample:
    def test_cube_per_face_counts(self):
        # rtol=0: np.isclose's default relative slack would count a sample
        # lying within ~1e-5 of a cube edge on both faces (seeds 4 and 7)
        m, _ = normalize(box())
        lo = m.vertices.min(axis=0)
        hi = m.vertices.max(axis=0)
        sigma = np.sqrt(6000 * (1 / 6) * (5 / 6))
        for seed in (3, 4, 7):
            cloud = surface_sample(m, 6000, seed=seed)
            assert cloud.points.shape == (6000, 3)
            counts = []
            for axis in range(3):
                for val in (lo[axis], hi[axis]):
                    counts.append(int(np.isclose(cloud.points[:, axis], val,
                                                 rtol=0, atol=1e-9).sum()))
            assert sum(counts) == 6000, seed
            for c in counts:
                assert abs(c - 1000) <= 3 * sigma

    def test_samples_stay_on_the_trimmed_faces(self):
        # the plane patches reach past their faces: a jittered sample from a
        # boundary cell must be re-tested against the trim to stay on the solid
        cube, _ = normalize(box())
        pts = surface_sample(cube, 4000, seed=0).points
        lo, hi = cube.vertices.min(axis=0), cube.vertices.max(axis=0)
        assert np.all(pts >= lo - 1e-12) and np.all(pts <= hi + 1e-12)

        holed, _ = normalize(through_hole_box())
        pts = surface_sample(holed, 4000, seed=0).points
        lo, hi = holed.vertices.min(axis=0), holed.vertices.max(axis=0)
        assert np.all(pts >= lo - 1e-12) and np.all(pts <= hi + 1e-12)
        inner = [h for loop in holed.loops if loop.kind == "inner" for h in loop.halfedges]
        hole = holed.vertices[[holed.halfedges[h].origin for h in inner]]
        hlo, hhi = hole.min(axis=0), hole.max(axis=0)
        in_hole = np.all((pts[:, :2] > hlo[:2] + 1e-12) & (pts[:, :2] < hhi[:2] - 1e-12), axis=1)
        assert not in_hole.any()

    def test_determinism(self):
        m, _ = normalize(box())
        a = surface_sample(m, 500, seed=9)
        b = surface_sample(m, 500, seed=9)
        assert np.array_equal(a.points, b.points)
        c = surface_sample(m, 500, seed=10)
        assert not np.array_equal(a.points, c.points)

    def test_cylinder_points_on_surface(self):
        m, _ = normalize(seam_cylinder())
        cloud = surface_sample(m, 2000, seed=0, with_normals=True)
        assert cloud.normals.shape == (2000, 3)
        assert np.allclose(np.linalg.norm(cloud.normals, axis=1), 1.0)


class TestCurveError:
    def test_straight_edges_zero(self):
        rep = curve_error(box())
        assert rep.mean_deviation < 1e-15   # zero up to float roundoff
        assert rep.chordal_mesh_deviation < 1e-15

    def test_circle_bounds_and_ordering(self):
        arc = CircularArc((0, 0, 0), 0.4, (1, 0, 0), (0, 1, 0), 0.0,
                          2.0 * np.pi)
        fine = _polyline_deviation(arc, 100, 1000)
        coarse = _polyline_deviation(arc, 33, 1000)
        sagitta32 = 0.4 * (1.0 - np.cos(np.pi / 32.0))
        assert fine < 5e-4
        assert fine < coarse
        assert coarse < sagitta32 * 1.05
        assert np.isclose(sagitta32, 1.93e-3, rtol=0.01)

    def test_model_level_report(self):
        rep = curve_error(seam_cylinder(radius=0.4))
        assert rep.curves == 3
        assert rep.mean_deviation < 5e-4
        assert rep.mean_deviation < rep.chordal_mesh_deviation

    def test_doubling_samples_decreases_error(self):
        arc = CircularArc((0, 0, 0), 0.4, (1, 0, 0), (0, 1, 0), 0.0,
                          2.0 * np.pi)
        assert _polyline_deviation(arc, 200, 1000) < \
            _polyline_deviation(arc, 100, 1000)

    def test_polyline_model_zero(self):
        rep = curve_error(as_polyline_model(box()))
        assert rep.mean_deviation < 1e-15
