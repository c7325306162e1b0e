import dataclasses
import hashlib
import re
import warnings

import numpy as np
import pytest

from brepcodec import sampler
from brepcodec.geometry import Segment2
from brepcodec.model import ModelError, halfedge_curve_samples, normalize, validate
from brepcodec.pipeline import decode_tokens, encode_model, lossless_codebook
from brepcodec.primitives import box, l_bracket, ngon_prism, seam_cylinder, through_hole_box
from brepcodec.sampler import (
    FaceCharts,
    SamplingConfig,
    ZeroDepthWarning,
    extract_vhp,
    unpack_descriptor,
    voronoi_assign,
)
from brepcodec.synth import FAMILIES, CorpusSpec, synth_corpus

CFG = SamplingConfig()


def records(m):
    """(half_patch, next_samples, label) of every row of the descriptor matrix."""
    return [unpack_descriptor(desc, CFG) for desc in extract_vhp(m, CFG)]


def face_halfedges(m, face):
    """Half-edge ids bounding ``face``, loop by loop, outer loop first."""
    return [h for li in m.face_loops(face) for h in m.loops[li].halfedges]


def next_in_loop(m, h):
    cycle = m.loops[m.halfedges[h].loop].halfedges
    return cycle[(cycle.index(h) + 1) % len(cycle)]


def pcurve_polylines(m, face):
    """Each bounding half-edge's pcurve at PCURVE_SAMPLES points, in loop order."""
    t = np.linspace(0.0, 1.0, sampler.PCURVE_SAMPLES)
    return {h: m.halfedges[h].pcurve.point(t) for h in face_halfedges(m, face)}


def polylines(m, charts, face):
    """Normalized UV polyline of each half-edge of ``face``, read from the
    chart tables, keyed by half-edge id in increasing order."""
    out = {}
    for h in sorted(face_halfedges(m, face)):
        r = charts._he_row[h]
        out[h] = charts._pts[charts._pts_off[r]: charts._pts_off[r] + charts._npts[r]]
    return out


def to_norm(charts, face, uv):
    uv = np.asarray(uv, dtype=float).reshape(-1, 2)
    return np.stack(charts._to_norm(uv[:, 0], uv[:, 1], face), axis=-1)


def brute_force_distances(m, charts, face, pts_norm):
    """Independent distance oracle: per-segment loops, no shared code path."""
    polys = polylines(m, charts, face)
    out = np.empty((len(pts_norm), len(polys)))
    for i, p in enumerate(pts_norm):
        for k, poly in enumerate(polys.values()):
            d = np.inf
            for a, b in zip(poly[:-1], poly[1:]):
                ab = b - a
                t = np.clip(np.dot(p - a, ab) / max(np.dot(ab, ab), 1e-300), 0, 1)
                d = min(d, float(np.linalg.norm(p - (a + t * ab))))
            out[i, k] = d
    return out


def even_odd_oracle(m, charts, face, p):
    """Plain-loop even-odd test of one point against the face's loop polygons."""
    polys = polylines(m, charts, face)
    crossings = 0
    for li in m.face_loops(face):
        poly = [q for h in m.loops[li].halfedges for q in polys[h][:-1]]
        for a, b in zip(poly, poly[1:] + poly[:1]):
            if (a[1] > p[1]) != (b[1] > p[1]):
                if p[0] < a[0] + (p[1] - a[1]) / (b[1] - a[1]) * (b[0] - a[0]):
                    crossings += 1
    return crossings % 2 == 1


def assert_voronoi_optimal(m, charts, face, pts_norm, labels, tol=1e-12):
    """Every label attains the minimum oracle distance (up to float noise)."""
    dists = brute_force_distances(m, charts, face, pts_norm)
    he_index = {h: k for k, h in enumerate(sorted(face_halfedges(m, face)))}
    dmin = dists.min(axis=1)
    picked = np.array([dists[i, he_index[lab]] for i, lab in enumerate(labels)])
    assert np.all(picked <= dmin + tol)


def assert_cells_optimal(m, charts, face, cells):
    """A face's labelled cells (``voronoi_assign``'s grid) pass the distance oracle."""
    uv, _ = charts.cell_grid(face)
    labels = cells.ravel()
    inside = labels >= 0
    assert_voronoi_optimal(m, charts, face, to_norm(charts, face, uv)[inside], labels[inside])


class TestBoundaryPcurves:
    def test_square_face_four_axis_aligned(self, cube_normed):
        polys = pcurve_polylines(cube_normed, 0)
        assert len(polys) == 4
        for p in polys.values():
            du = np.ptp(p[:, 0])
            dv = np.ptp(p[:, 1])
            assert min(du, dv) < 1e-12  # axis aligned

    def test_cylinder_lateral_two_horizontal_two_vertical(self, cylinder_normed):
        polys = pcurve_polylines(cylinder_normed, 0).values()
        assert len(polys) == 4
        horizontal = [p for p in polys if np.ptp(p[:, 1]) < 1e-12]
        vertical = [p for p in polys if np.ptp(p[:, 0]) < 1e-12]
        assert len(horizontal) == 2 and len(vertical) == 2
        spans = sorted(np.ptp(p[:, 0]) for p in horizontal)
        assert np.allclose(spans, [2 * np.pi, 2 * np.pi])

    def test_face_with_inner_loop_has_eight(self, hole_box_normed):
        # top or bottom plate carries the hole
        counts = [len(pcurve_polylines(hole_box_normed, f))
                  for f in range(len(hole_box_normed.faces))]
        assert sorted(counts)[-2:] == [8, 8]

    def test_pcurves_agree_with_curves_inside_the_domain(self, all_primitives):
        t = np.linspace(0.0, 1.0, sampler.PCURVE_SAMPLES)
        for name, src in all_primitives.items():
            m, _ = normalize(src)
            for f, face in enumerate(m.faces):
                u0, u1, v0, v1 = face.surface.domain()
                tol = 1e-9 * (abs(u1 - u0) + abs(v1 - v0))
                for h, uv in pcurve_polylines(m, f).items():
                    assert u0 - tol <= uv[:, 0].min() and uv[:, 0].max() <= u1 + tol, (name, h)
                    assert v0 - tol <= uv[:, 1].min() and uv[:, 1].max() <= v1 + tol, (name, h)
                    he = m.halfedges[h]
                    on_curve = m.edges[he.edge].curve.point(t if he.forward else 1.0 - t)
                    gap = np.linalg.norm(face.surface.point(uv[:, 0], uv[:, 1]) - on_curve,
                                         axis=-1).max()
                    assert gap <= 1e-6, (name, h, gap)


class TestVoronoiAssign:
    def test_square_face_diagonal_regions(self, cube_normed):
        charts = FaceCharts(cube_normed)
        labels = voronoi_assign(cube_normed, 0, charts)
        assert_cells_optimal(cube_normed, charts, 0, labels)
        # four regions, roughly balanced (triangles meeting at the diagonals)
        ids, counts = np.unique(labels[labels >= 0], return_counts=True)
        assert len(ids) == 4
        assert counts.max() - counts.min() <= 0.15 * counts.max()

    def test_cell_grid_centres_and_trim(self, hole_box_normed):
        charts = FaceCharts(hole_box_normed)
        for face in range(len(hole_box_normed.faces)):
            uv, inside = charts.cell_grid(face)
            u0, u1, v0, v1 = charts.domains[face]
            i, j = np.divmod(np.arange(sampler.UV_GRID ** 2), sampler.UV_GRID)
            assert np.allclose(uv[:, 0], u0 + (i + 0.5) / sampler.UV_GRID * (u1 - u0))
            assert np.allclose(uv[:, 1], v0 + (j + 0.5) / sampler.UV_GRID * (v1 - v0))
            x = to_norm(charts, face, uv[::97])
            assert np.array_equal(inside[::97], [even_odd_oracle(hole_box_normed, charts, face, p)
                                                for p in x])

    def test_exact_tie_breaks_to_lowest_halfedge_id(self):
        from brepcodec.model import BrepModel, Edge, Face, HalfEdge, Loop
        from brepcodec.geometry import LineSegment, Plane

        verts = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0.0]])
        plane = Plane((0, 0, 0), (1, 0, 0), (0, 1, 0))
        cycle = [(0, 1), (1, 2), (2, 3), (3, 0)]
        uv = [(0, 0), (1, 0), (1, 1), (0, 1)]
        edges = []
        hes = []
        for k, (a, b) in enumerate(cycle):
            edges.append(Edge(curve=LineSegment(verts[a], verts[b]), v0=a, v1=b,
                              halfedges=(k, k + 4)))
            hes.append(HalfEdge(origin=a, twin=k + 4, edge=k, loop=0, forward=True,
                                pcurve=Segment2(uv[k], uv[(k + 1) % 4])))
        # a second face closes the sheet: (x, y) lies at (x, 1 - y) in its UV
        back = Plane((0, 1, 0), (1, 0, 0), (0, -1, 0))
        flip = [(u, 1 - v) for u, v in uv]
        for k, (a, b) in enumerate(cycle):
            hes.append(HalfEdge(origin=b, twin=k, edge=k, loop=1, forward=False,
                                pcurve=Segment2(flip[(k + 1) % 4], flip[k])))
        m = BrepModel(vertices=verts, edges=edges, halfedges=hes,
                      loops=[Loop(halfedges=(0, 1, 2, 3), kind="outer", face=0),
                             Loop(halfedges=(7, 6, 5, 4), kind="outer", face=1)],
                      faces=[Face(surface=plane, outer=0), Face(surface=back, outer=1)])
        charts = FaceCharts(m)
        # the exact center is equidistant to all four sides in float arithmetic
        c = to_norm(charts, 0, [0.5, 0.5])
        lab = charts.nearest(c[:, 0], c[:, 1], np.zeros(1, dtype=int))
        assert lab[0] == min(face_halfedges(m, 0))

    def test_rectangle_2_to_1_trapezoids(self):
        m, _ = normalize(box(size=(2.0, 1.0, 1.0)))
        # face 4 is z = 0 with a 2:1 footprint
        charts = FaceCharts(m)
        labels = voronoi_assign(m, 4, charts)
        ids, counts = np.unique(labels[labels >= 0], return_counts=True)
        assert len(ids) == 4
        # two long edges own trapezoids (more cells), two short own triangles
        top2 = sorted(counts)[-2:]
        bot2 = sorted(counts)[:2]
        assert min(top2) > max(bot2)
        assert_cells_optimal(m, charts, 4, labels)

    def test_square_with_hole_exhaustive(self, hole_box_normed):
        face = next(f for f in range(len(hole_box_normed.faces))
                    if hole_box_normed.faces[f].inners)
        charts = FaceCharts(hole_box_normed)
        labels = voronoi_assign(hole_box_normed, face, charts)
        assert_cells_optimal(hole_box_normed, charts, face, labels)
        labels = labels.ravel()
        inner_hes = set()
        for li in hole_box_normed.face_loops(face):
            if hole_box_normed.loops[li].kind == "inner":
                inner_hes.update(hole_box_normed.loops[li].halfedges)
        assert inner_hes & set(labels[labels >= 0].tolist())  # hole owns a band

    def test_labels_are_pinned(self, all_primitives):
        # recorded when `frame_for_normal` began to break near-ties to the
        # lowest axis: the hexagonal prism's side faces at 90 and 270 degrees,
        # whose x components are cos(90 deg) and cos(270 deg), took U = x
        digest = hashlib.sha256()
        for src in all_primitives.values():
            m, _ = normalize(src)
            charts = FaceCharts(m)
            for f in range(len(m.faces)):
                digest.update(voronoi_assign(m, f, charts).astype(np.int64).tobytes())
        assert digest.hexdigest() == (
            "12bf52969d83ea4fa0106b25db99a68133544754b8e258d194d3561cbe30fe6b")


class TestFaceChartsKernel:
    """The batched trim and owner kernel against per-face loop oracles."""

    @pytest.mark.parametrize("make", [through_hole_box, l_bracket])
    def test_all_faces_at_once_match_oracles(self, make, monkeypatch):
        m, _ = normalize(make())
        nf = len(m.faces)
        charts = FaceCharts(m)
        rng = np.random.default_rng(11)
        xs, ys, fks = [], [], []
        for f in range(nf):
            n = 40
            x = rng.uniform(-0.05, charts._su[f] + 0.05, n)
            y = rng.uniform(-0.05, charts._sv[f] + 0.05, n)
            # points on the line of every horizontal chord hit the tie rule
            flat = [p[0, 1] for p in polylines(m, charts, f).values()
                    if p.shape[0] == 2 and p[0, 1] == p[1, 1]]
            assert flat
            y[: len(flat) * 3] = np.repeat(flat, 3)
            xs.append(x)
            ys.append(y)
            fks.append(np.full(n, f))
        x, y, fk = np.concatenate(xs), np.concatenate(ys), np.concatenate(fks)
        trim = charts.in_trim(x, y, fk)
        near = charts.nearest(x, y, fk)
        assert np.array_equal(charts.in_own_cell(x, y, fk, near), trim)
        # blocks of a few pairs give the same answers as one block
        monkeypatch.setattr(sampler, "_PAIR_BLOCK", 5)
        assert np.array_equal(charts.in_trim(x, y, fk), trim)
        assert np.array_equal(charts.nearest(x, y, fk), near)
        monkeypatch.undo()
        for f in range(nf):
            sel = fk == f
            pts = np.stack([x[sel], y[sel]], axis=-1)
            expect = np.array([even_odd_oracle(m, charts, f, p) for p in pts])
            assert np.array_equal(trim[sel], expect), f
            assert_voronoi_optimal(m, charts, f, pts, near[sel])
            # any half-edge clearly farther than the nearest does not own
            dists = brute_force_distances(m, charts, f, pts)
            far = np.array(sorted(face_halfedges(m, f)))[np.argmax(dists, axis=1)]
            clearly = dists.max(axis=1) > dists.min(axis=1) + 1e-9
            assert not charts.in_own_cell(x[sel], y[sel], fk[sel], far)[clearly].any()

    def test_exact_tie_owner_is_lowest_id(self):
        m, _ = normalize(box())
        charts = FaceCharts(m)
        hes = sorted(face_halfedges(m, 0))
        # the centre of the square face is equidistant from all four sides
        c = to_norm(charts, 0, [0.5, 0.5])[0]
        x, y, fk = np.full(4, c[0]), np.full(4, c[1]), np.zeros(4, dtype=int)
        owns = charts.in_own_cell(x, y, fk, np.array(hes))
        assert owns.tolist() == [h == min(hes) for h in hes]


class TestSampleHalfPatch:
    def test_planar_face_markers(self, cube_normed):
        he = min(face_halfedges(cube_normed, 0))
        patch = records(cube_normed)[he][0]
        assert patch.shape == (6, 4, 3)
        # all samples on the face plane
        surf = cube_normed.faces[0].surface
        n = np.cross(surf.u_vec, surf.v_vec)
        n = n / np.linalg.norm(n)
        d = (patch.reshape(-1, 3) - surf.origin) @ n
        assert np.abs(d).max() < 1e-9
        # every sample stays in its own Voronoi cell
        charts = FaceCharts(cube_normed)
        x = to_norm(charts, 0, surf.uv_of_point(patch.reshape(-1, 3)))
        owners = charts.nearest(x[:, 0], x[:, 1], np.zeros(len(x), dtype=int))
        assert np.all(owners == he)
        # columns march away from the curve
        d0 = np.linalg.norm(patch[:, 1, :] - patch[:, 0, :], axis=1)
        d2 = np.linalg.norm(patch[:, -1, :] - patch[:, 0, :], axis=1)
        assert np.all(d2 > d0)

    def test_cylinder_wall_isoparametric_walk(self, cylinder_normed):
        surf = cylinder_normed.faces[0].surface
        # bottom circle halfedge: the one whose pcurve sits at v = 0
        he = next(h for h in sorted(face_halfedges(cylinder_normed, 0))
                  if np.ptp(cylinder_normed.halfedges[h].pcurve.point(
                      np.linspace(0, 1, 5))[:, 1]) < 1e-12
                  and cylinder_normed.halfedges[h].pcurve.point(0.0)[1] == 0.0)
        patch = records(cylinder_normed)[he][0]
        axis_pt = surf.center
        radial = patch - axis_pt
        r = np.hypot(radial[..., 0], radial[..., 1])
        assert np.abs(r - surf.radius).max() < 1e-9  # all on the wall
        for row in patch:
            angles = np.arctan2(row[:, 1] - axis_pt[1], row[:, 0] - axis_pt[0])
            assert np.ptp(np.unwrap(angles)) < 1e-6  # constant u per row
            assert row[1:, 2].max() > row[0, 2] + 1e-6  # climbing in z

    def test_zero_depth_sliver_warns_and_collapses(self):
        sliver = box(size=(1.0, 1e-10, 1.0))
        with pytest.warns(ZeroDepthWarning):
            patches = [hp for hp, _, _ in records(sliver)]
        collapsed = [hp for hp in patches
                     if np.linalg.norm(hp[:, 1:, :] - hp[:, :1, :], axis=-1).max() < 1e-6]
        assert collapsed

    def test_sliver_warns_once_per_collapsed_halfedge(self):
        # 16, the count before the walk was batched across faces
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            extract_vhp(box(size=(1.0, 1e-10, 1.0)), CFG)
        assert sum(issubclass(w.category, ZeroDepthWarning) for w in caught) == 16

    def test_missing_pcurve_is_a_validation_defect(self, cube_normed):
        m = cube_normed
        for k in (0, 3, 5):
            h = face_halfedges(m, k)[1]
            hes = list(m.halfedges)
            hes[h] = dataclasses.replace(hes[h], pcurve=None)
            bad = dataclasses.replace(m, halfedges=hes)
            defect = f"halfedge {h}: no pcurve on face {k}"
            assert validate(bad).defects == [defect]
            with pytest.raises(ModelError, match=re.escape(defect)):
                extract_vhp(bad, CFG)


def all_rays(m):
    """The chart of ``m`` and every ray of every half-edge, as `_rays` casts them."""
    charts = FaceCharts(m)
    return charts, charts._rays(np.arange(len(m.halfedges)), CFG.n_curve)


def bisection_width(charts, fk):
    """The march's final bracket: the face diagonal over its steps and bisections."""
    return charts._diag[fk] / (sampler.UV_GRID // 2) / 2.0 ** sampler._BISECTIONS


class TestRayExtents:
    """Every ray's depth against the march, which stays as the reference."""

    def test_extents_match_the_march(self, all_primitives):
        spec = CorpusSpec(counts={f: 3 for f in FAMILIES}, components=(1, 3), seed=19)
        models = list(all_primitives.values()) + [m for _, m in synth_corpus(spec)]
        for m in models:
            charts, rays = all_rays(normalize(m)[0])
            got = charts._extents(*rays)
            march = charts._walk_extents(*rays[:6])
            assert np.all(np.abs(got - march) <= bisection_width(charts, rays[4]))

    @pytest.mark.parametrize("make", [box, through_hole_box, seam_cylinder])
    def test_decoded_models_keep_samples_in_their_cells(self, make, monkeypatch):
        # a decoded model's Poly2 half-edges on faces with other half-edges
        # take the march
        normed = normalize(make())[0]
        cb = lossless_codebook(normed)
        rebuilt, _ = decode_tokens(encode_model(normed, cb), cb)
        marched = []
        walk = FaceCharts._walk_extents

        def spy(self, *rays):
            marched.append(rays[0].size)
            return walk(self, *rays)

        monkeypatch.setattr(FaceCharts, "_walk_extents", spy)
        descs = extract_vhp(rebuilt, CFG)
        assert descs.shape == (len(rebuilt.halfedges), CFG.descriptor_length)
        assert sum(marched) > 0
        charts, (sx, sy, nx, ny, fk, owner, inward) = all_rays(rebuilt)
        depth = charts._extents(sx, sy, nx, ny, fk, owner, inward)
        march = charts._walk_extents(sx, sy, nx, ny, fk, owner)
        assert np.all(np.abs(depth - march) <= bisection_width(charts, fk))
        ns = CFG.n_surface
        step = depth[:, None] * (np.arange(1, ns) / (ns - 1))
        x = (sx[:, None] + step * nx[:, None]).ravel()
        y = (sy[:, None] + step * ny[:, None]).ravel()
        f = np.repeat(fk, ns - 1)
        assert charts.in_trim(x, y, f).all()
        assert np.array_equal(charts.nearest(x, y, f), np.repeat(owner, ns - 1))


class TestNextPointers:
    def test_square_loop_right_edge(self, unit_cube):
        m, _ = normalize(unit_cube)
        zmin = m.vertices[:, 2].min()
        xmax = m.vertices[:, 0].max()
        # find a halfedge whose successor ascends the right edge of the
        # bottom square: from (xmax, ymin, zmin) towards +y
        target = None
        for h in range(len(m.halfedges)):
            nxt = next_in_loop(m, h)
            o = m.vertices[m.halfedges[nxt].origin]
            d = m.vertices[m.destination(nxt)]
            if np.isclose(o[2], zmin) and np.isclose(d[2], zmin) \
                    and o[1] < d[1] and np.isclose(o[0], d[0]) \
                    and np.isclose(o[0], xmax):
                target = (h, nxt)
                break
        assert target is not None
        h, nxt = target
        samples = records(m)[h][1]
        curve = m.edges[m.halfedges[nxt].edge].curve
        params = np.arange(1, 7) / 7.0
        if not m.halfedges[nxt].forward:
            params = 1.0 - params
        assert np.array_equal(samples, curve.point(params)[:4])

    def test_subsequence_property(self, all_primitives):
        for name, src in all_primitives.items():
            m, _ = normalize(src)
            for h, (_, got, _) in enumerate(records(m)):
                nxt = next_in_loop(m, h)
                expect = halfedge_curve_samples(m, nxt, CFG.n_curve)[: CFG.n_next]
                assert np.array_equal(got, expect), (name, h)

    def test_self_loop_uses_own_far_end(self, cylinder_normed):
        m = cylinder_normed
        # cap loops have a single halfedge with next(h) = h
        self_loops = [l for l in m.loops if len(l.halfedges) == 1]
        assert len(self_loops) == 2
        recs = records(m)
        for loop in self_loops:
            h = loop.halfedges[0]
            assert next_in_loop(m, h) == h
            samples = recs[h][1]
            own = halfedge_curve_samples(m, h, CFG.n_curve)
            assert np.array_equal(samples, own[:4])


class TestExtractVhp:
    def test_cube_counts_and_labels(self, cube_normed):
        descs = extract_vhp(cube_normed, CFG)
        assert descs.shape == (24, CFG.descriptor_length)
        assert 24 == 2 * len(cube_normed.edges)
        assert all(label == 1 for _, _, label in records(cube_normed))

    def test_hole_box_inner_labels(self, hole_box_normed):
        recs = records(hole_box_normed)
        assert len(recs) == 48
        inner_ids = {h for h, (_, _, label) in enumerate(recs) if label == 0}
        # each inner loop's own halfedges carry the inner label (2 loops x 4)
        assert len(inner_ids) == 8
        expected = set()
        for loop in hole_box_normed.loops:
            if loop.kind == "inner":
                expected.update(loop.halfedges)
        assert inner_ids == expected

    def test_record_count_is_twice_edges(self, all_primitives):
        for src in all_primitives.values():
            m, _ = normalize(src)
            assert extract_vhp(m, CFG).shape == (2 * len(m.edges), CFG.descriptor_length)

    def test_twin_symmetry_of_on_curve_rows(self, cube_normed):
        recs = records(cube_normed)
        for h, (hp, _, _) in enumerate(recs):
            twin = cube_normed.halfedges[h].twin
            a = hp[:, 0, :]
            b = recs[twin][0][:, 0, :]
            assert np.abs(a - b[::-1]).max() < 1e-12

    def test_coverage_of_column_zero(self, cube_normed):
        recs = records(cube_normed)
        for f in range(len(cube_normed.faces)):
            hes = face_halfedges(cube_normed, f)
            col0 = np.concatenate([recs[h][0][:, 0, :] for h in hes])
            expected = np.concatenate([
                halfedge_curve_samples(cube_normed, h, CFG.n_curve) for h in hes])
            assert np.allclose(np.sort(col0, axis=0), np.sort(expected, axis=0))

    def test_samples_on_surface(self, all_primitives):
        for name, src in all_primitives.items():
            m, _ = normalize(src)
            for h, (hp, _, _) in enumerate(records(m)):
                he = m.halfedges[h]
                surf = m.faces[m.loops[he.loop].face].surface
                pts = hp.reshape(-1, 3)
                if surf.kind == "plane":
                    n = np.cross(surf.u_vec, surf.v_vec)
                    n /= np.linalg.norm(n)
                    assert np.abs((pts - surf.origin) @ n).max() < 1e-6, name
                elif surf.kind == "cylinder":
                    ax = surf.axis / np.linalg.norm(surf.axis)
                    rel = pts - surf.center
                    radial = rel - np.outer(rel @ ax, ax)
                    assert np.abs(np.linalg.norm(radial, axis=1)
                                  - surf.radius).max() < 1e-6, name

    def test_one_halfedge_walked_alone_matches_the_batch(self, all_primitives):
        # batching every half-edge into one walk must not let rays see each other
        for name, src in all_primitives.items():
            m, _ = normalize(src)
            charts = FaceCharts(m)
            for h, (hp, nxt, _) in enumerate(records(m)):
                on_curve = halfedge_curve_samples(m, h, CFG.n_curve)
                one = charts.half_patches([h], on_curve[None], CFG.n_surface)[0]
                assert np.array_equal(hp, one), (name, h)
                succ = halfedge_curve_samples(m, next_in_loop(m, h), CFG.n_curve)
                assert np.array_equal(nxt, succ[: CFG.n_next]), (name, h)

    def test_model_without_faces_has_no_records(self):
        # validate names the missing faces, and the charts refuse the model
        from brepcodec.model import BrepModel

        empty = BrepModel(vertices=np.zeros((0, 3)), edges=[], halfedges=[], loops=[],
                          faces=[])
        assert validate(empty).defects == ["model has no faces"]
        with pytest.raises(ModelError, match="model has no faces"):
            extract_vhp(empty, CFG)

    def test_descriptor_payload_size(self):
        assert CFG.descriptor_length == 85
