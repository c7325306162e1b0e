import dataclasses
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components as csgraph_components

import brepcodec.io as bio
from brepcodec.geometry import GeometryError, LineSegment, Plane, Segment2
from brepcodec.model import (
    BrepModel,
    Edge,
    ModelBuilder,
    _union_find,
    connected_components,
    euler_report,
    halfedge_curve_samples,
    model_bbox,
    normalize,
    validate,
)
from brepcodec.primitives import (box, l_bracket, merge_models, ngon_prism, seam_cylinder,
                                  through_hole_box)
from brepcodec.synth import FAMILIES, CorpusSpec, synth_corpus
from brepcodec.codec import quantize_coord
from conftest import as_polyline_model


def shell_tuples(model):
    return sorted((s.vertices, s.edges, s.faces, s.inner_loops, s.genus)
                  for s in euler_report(model))


class TestValidate:
    def test_unit_cube_watertight(self, unit_cube):
        rep = validate(unit_cube)
        assert rep.watertight
        assert shell_tuples(unit_cube) == [(8, 12, 6, 0, 0.0)]

    def test_twin_redirected_to_self_is_flagged(self, unit_cube):
        bad = BrepModel(vertices=unit_cube.vertices, edges=list(unit_cube.edges),
                        halfedges=list(unit_cube.halfedges),
                        loops=list(unit_cube.loops), faces=list(unit_cube.faces))
        bad.halfedges[0] = dataclasses.replace(bad.halfedges[0], twin=0)
        rep = validate(bad)
        assert not rep.watertight
        assert any("halfedge 0" in d for d in rep.defects)

    def test_through_hole_box(self):
        m = through_hole_box()
        rep = validate(m)
        assert rep.watertight
        assert shell_tuples(m) == [(16, 24, 10, 2, 1.0)]

    def test_dangling_ids_reported_not_raised(self, unit_cube):
        bad = BrepModel(vertices=unit_cube.vertices, edges=list(unit_cube.edges),
                        halfedges=list(unit_cube.halfedges),
                        loops=list(unit_cube.loops), faces=list(unit_cube.faces))
        bad.halfedges[3] = dataclasses.replace(bad.halfedges[3], origin=999)
        rep = validate(bad)
        assert not rep.watertight
        assert any("dangling origin" in d for d in rep.defects)

    def test_loop_its_face_drops_is_flagged(self):
        # without the check, the dropped hole showed only as "genus 0.5"
        m = through_hole_box()
        f = next(i for i, face in enumerate(m.faces) if face.inners)
        faces = list(m.faces)
        faces[f] = dataclasses.replace(faces[f], inners=())
        rep = validate(dataclasses.replace(m, faces=faces))
        assert not rep.watertight
        assert rep.defects == [f"loop {m.faces[f].inners[0]}: listed 0 times by faces"]

    def test_edge_its_halfedges_do_not_name_is_flagged(self, unit_cube):
        # a copy of edge 0 appended as edge 12 claims edge 0's half-edges
        m = dataclasses.replace(unit_cube, edges=[*unit_cube.edges, unit_cube.edges[0]])
        h0, h1 = unit_cube.edges[0].halfedges
        assert validate(m).defects == [f"edge 12: halfedges {h0} and {h1} name edges 0 and 0"]

    @pytest.mark.parametrize("misuse", ["none", "twice", "once", "open"])
    def test_builder_misuse_is_a_validate_defect(self, misuse):
        # a pillow: one triangle bounding two faces, its edge i running i -> i + 1
        b = ModelBuilder()
        corners = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
        vs = [b.vertex((x, y, 0.0)) for x, y in corners]
        es = [b.line_between(vs[i], vs[(i + 1) % 3])[0] for i in range(3)]
        up = [(es[i], True, Segment2(corners[i], corners[(i + 1) % 3])) for i in range(3)]
        down = [(es[i], False, Segment2(corners[(i + 1) % 3], corners[i]))
                for i in reversed(range(3))]
        plane = Plane((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0))
        loops = {"none": [up, down], "twice": [up, down, up], "once": [up],
                 "open": [up, down[::-1]]}[misuse]
        for refs in loops:
            b.face(plane, refs)
        rep = validate(b.build())
        assert rep.defects == {
            "none": [],
            # the last use of each direction is the edge's; the first is left unpaired
            "twice": [f"halfedge {h}: {d}" for h in range(3)
                      for d in ("twin(twin) != self", f"not registered on edge {h}")],
            # a direction never used links to -1
            "once": [f"edge {e}: dangling halfedge -1" for e in range(3)]
                    + [f"halfedge {h}: dangling twin -1" for h in range(3)],
            "open": [f"loop 1: open between halfedges {h} and {(h - 2) % 3 + 3}"
                     for h in (3, 4, 5)],
        }[misuse]
        assert rep.watertight == (misuse == "none")

    @pytest.mark.parametrize("mutate", ["none", "twin", "origin", "open", "kind", "isolated",
                                        "edge halfedge", "edge vertex", "edge ends"])
    def test_twin_and_loop_checks_alone_agree_with_validate(self, unit_cube, mutate):
        from brepcodec.model import ModelError
        from brepcodec.sampler import extract_vhp

        m = BrepModel(vertices=unit_cube.vertices, edges=list(unit_cube.edges),
                      halfedges=list(unit_cube.halfedges),
                      loops=list(unit_cube.loops), faces=list(unit_cube.faces))
        if mutate == "twin":
            m.halfedges[0] = dataclasses.replace(m.halfedges[0], twin=0)
        elif mutate == "origin":
            m.halfedges[3] = dataclasses.replace(m.halfedges[3], origin=999)
        elif mutate == "open":
            m.loops[2] = dataclasses.replace(m.loops[2], halfedges=m.loops[2].halfedges[::-1])
        elif mutate == "kind":      # a manifold defect only
            m.loops[1] = dataclasses.replace(m.loops[1], kind="inner")
        elif mutate == "isolated":  # a manifold defect only
            m.vertices = np.vstack([m.vertices, [[5.0, 5.0, 5.0]]])
        elif mutate == "edge halfedge":
            m.edges[0] = dataclasses.replace(m.edges[0], halfedges=(999, m.edges[0].halfedges[1]))
        elif mutate == "edge vertex":
            m.edges[0] = dataclasses.replace(m.edges[0], v0=999)
        elif mutate == "edge ends":  # both ends on one vertex: a self-loop its half-edges deny
            m.edges[0] = dataclasses.replace(m.edges[0], v0=m.edges[0].v1)
        rep = validate(m)
        assert rep.watertight == (mutate == "none")
        if rep.watertight:
            extract_vhp(m)
        else:               # the message quotes validate's first defects
            with pytest.raises(ModelError) as err:
                extract_vhp(m)
            assert str(err.value) == f"model is not valid: {rep.defects[:3]}"
        want = {"edge halfedge": "edge 0: dangling halfedge 999",
                "edge vertex": "edge 0: dangling vertex 999",
                "edge ends": "edge 0: halfedge 0 starts at 4, not at the edge's v0"}
        assert mutate not in want or rep.defects == [want[mutate]]


class TestEuler:
    def test_cube(self, unit_cube):
        assert shell_tuples(unit_cube) == [(8, 12, 6, 0, 0.0)]

    def test_triangular_prism(self):
        assert shell_tuples(ngon_prism(n=3)) == [(6, 9, 5, 0, 0.0)]

    def test_cylinder(self):
        assert shell_tuples(seam_cylinder()) == [(2, 3, 3, 0, 0.0)]

    def test_two_shells(self):
        m = merge_models([box(), box(at=(3, 0, 0))])
        assert shell_tuples(m) == [(8, 12, 6, 0, 0.0), (8, 12, 6, 0, 0.0)]


class TestConnectedComponents:
    def test_single_cube(self, unit_cube):
        comps = connected_components(unit_cube)
        assert len(comps) == 1 and len(comps[0]) == 8

    def test_two_disjoint_cubes(self):
        m = merge_models([box(), box(at=(3, 0, 0))])
        comps = connected_components(m)
        assert sorted(len(c) for c in comps) == [8, 8]

    def test_bench_pair_counts(self):
        # five disjoint boxes: intra-component pairs shrink 140 vs 780
        m = merge_models([box(at=(3 * i, 0, 0)) for i in range(5)])
        comps = connected_components(m)
        intra = sum(len(c) * (len(c) - 1) // 2 for c in comps)
        total = m.num_vertices * (m.num_vertices - 1) // 2
        assert intra == 5 * 28 == 140
        assert total == 780
        assert intra < total

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 30).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                             max_size=40))))
    def test_union_find_matches_graph_search(self, case):
        n, pairs = case
        rows = [a for a, _ in pairs]
        cols = [b for _, b in pairs]
        graph = coo_matrix((np.ones(len(pairs)), (rows, cols)), shape=(n, n))
        _, labels = csgraph_components(graph, directed=False)
        classes = {}
        for v, lab in enumerate(labels):
            classes.setdefault(lab, []).append(v)
        assert _union_find(n, pairs) == sorted(tuple(c) for c in classes.values())


class TestSampleCurve:
    def test_interior_parameters(self, unit_cube):
        # straight edge (0,0,0)->(1,0,0): x at k/7
        eid = next(i for i, e in enumerate(unit_cube.edges)
                   if np.allclose(sorted([unit_cube.vertices[e.v0][0],
                                          unit_cube.vertices[e.v1][0]]), [0, 1])
                   and unit_cube.vertices[e.v0][1] == 0
                   and unit_cube.vertices[e.v0][2] == 0
                   and unit_cube.vertices[e.v1][1] == 0
                   and unit_cube.vertices[e.v1][2] == 0)
        pts = halfedge_curve_samples(unit_cube, unit_cube.edges[eid].halfedges[0], 6)
        xs = np.sort(pts[:, 0])
        assert np.allclose(xs, np.arange(1, 7) / 7.0)

    def test_single_interior_sample_is_midpoint(self, unit_cube):
        pts = halfedge_curve_samples(unit_cube, unit_cube.edges[0].halfedges[0], 1)
        mid = unit_cube.edges[0].curve.point(0.5)
        assert np.allclose(pts[0], mid)


class TestBbox:
    def test_bbox_is_the_per_curve_reduction(self, all_primitives):
        models = [*all_primitives.values(), as_polyline_model(box(at=(1.0, -2.0, 0.5)))]
        for m in models:
            boxes = [e.curve.bbox() for e in m.edges]
            lo = np.min([m.vertices.min(axis=0), *(b[0] for b in boxes)], axis=0)
            hi = np.max([m.vertices.max(axis=0), *(b[1] for b in boxes)], axis=0)
            got_lo, got_hi = model_bbox(m)
            assert np.array_equal(got_lo, lo) and np.array_equal(got_hi, hi)


class TestNormalize:
    def test_cube_scale(self):
        m2, rec = normalize(box(size=(2, 2, 2)))
        assert rec.scale == (1.0 - 1.0 / 256.0) / 2.0 == 0.498046875
        lo, hi = model_bbox(m2)
        assert lo.min() >= 0.0 and hi.max() < 1.0

    def test_idempotent_on_quantized_coords(self):
        m1, _ = normalize(box(size=(1.7, 0.4, 0.9), at=(5, 6, 7)))
        m2, rec2 = normalize(m1)
        assert 1.0 - 1.0 / 128.0 <= rec2.scale <= 1.0 + 1e-9
        assert np.array_equal(quantize_coord(m1.vertices),
                              quantize_coord(m2.vertices))

    def test_flat_plate_allowed_point_model_rejected(self):
        # zero extent on a non-longest axis is fine
        plate = BrepModel(
            vertices=np.array([[0, 0, 0], [2, 0, 0], [2, 2, 0], [0, 2, 0.0]]),
            edges=[Edge(curve=LineSegment((0, 0, 0), (2, 0, 0)), v0=0, v1=1,
                        halfedges=(0, 1))],
            halfedges=[], loops=[], faces=[])
        m2, rec = normalize(plate)
        assert np.allclose(m2.vertices[:, 2], 0.5)
        point_model = BrepModel(vertices=np.zeros((1, 3)), edges=[],
                                halfedges=[], loops=[], faces=[])
        with pytest.raises(GeometryError):
            normalize(point_model)

    def test_transform_record_inverts(self):
        src = box(size=(1.3, 2.1, 0.7), at=(4, 5, 6))
        m2, rec = normalize(src)
        assert np.allclose(rec.invert(m2.vertices), src.vertices)

    def test_geometry_rescaled_consistently(self):
        src = seam_cylinder(radius=0.7, height=2.0, at=(3, 3, 3))
        m2, rec = normalize(src)
        # curve endpoints still coincide with vertices after the transform
        for e in m2.edges:
            assert np.linalg.norm(e.curve.point(0.0) - m2.vertices[e.v0]) < 1e-9
            assert np.linalg.norm(e.curve.point(1.0) - m2.vertices[e.v1]) < 1e-9
        # curved geometry stays inside the unit box
        lo, hi = model_bbox(m2)
        assert lo.min() >= 0.0 and hi.max() < 1.0


def normalized_digest(model) -> str:
    """sha256 of the model file of ``normalize(model)``, its transform included."""
    normed, record = normalize(model)
    return hashlib.sha256(json.dumps(bio.model_to_dict(normed, record)).encode()).hexdigest()


# Every field of every normalized curve, surface and pcurve, bit for bit: lines,
# arcs, planes and a cylinder wall here; polylines and bicubic patches in
# `test_reconstruct.py` (the rebuilt bicubic-rich decodes).
GOLDEN_NORMALIZED = {
    "box": "60854ce886f8fff4bb0fb07e075370b8e42ccdbd3f40c82a1897c1911f5a7a15",
    "cylinder": "95baf35b4d9ebabba0d30db536f76e2cf5e6c557cb875373d443ac61c65b1013",
    "hole_box": "800d0c4d7fd470a6d8e2bc8e647d7e5413f733cf459c3243b3e356d2cf458141",
    "l_bracket": "e9ccd6fd961d2da519816be5e8416d3c50152f287aa5520ed59ab6f8f0dd6173",
    "prism": "ae62345f76ee97752976e4c23e6b6f62e91b4892e236f3733519bd1bd24ea656",
    "two_cubes": "904ca8c0c872da97b685af6809bcf5ae6a5f0d56ae3955ea6d2e71419dbe2093",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_NORMALIZED))
def test_normalized_geometry_is_pinned(all_primitives, name):
    assert normalized_digest(all_primitives[name]) == GOLDEN_NORMALIZED[name]


# The model files of everything the builder makes for the corpus and the
# default primitives, bit for bit: twin ids, loop order and pcurves included.
GOLDEN_BUILDER = "6753e120d4f50c2528ec9730053a3d127c070f4f5b45592592b0e9cf7a834298"


def test_builder_output_is_pinned():
    models = [m for s in range(6) for _, m in synth_corpus(
        CorpusSpec(counts={f: 6 for f in FAMILIES}, components=(1, 5), seed=s))]
    models += [box(), ngon_prism(), seam_cylinder(), through_hole_box(), l_bracket()]
    digest = hashlib.sha256()
    for m in models:
        digest.update(json.dumps(bio.model_to_dict(m)).encode())
    assert digest.hexdigest() == GOLDEN_BUILDER


class TestCorpusInvariants:
    def test_v_le_e_on_primitives(self, all_primitives):
        for name, m in all_primitives.items():
            if len(m.faces) >= 2:
                assert m.num_vertices <= len(m.edges), name

    def test_loop_cycles_close(self, all_primitives):
        for m in all_primitives.values():
            for loop in m.loops:
                cyc = loop.halfedges
                for i, h in enumerate(cyc):
                    nxt = cyc[(i + 1) % len(cyc)]
                    assert m.destination(h) == m.halfedges[nxt].origin

    def test_twin_involution(self, all_primitives):
        for m in all_primitives.values():
            for i, he in enumerate(m.halfedges):
                assert m.halfedges[he.twin].twin == i
                assert he.twin != i
                assert m.halfedges[he.twin].origin == m.destination(he.twin) or True
                assert m.destination(i) == m.halfedges[he.twin].origin
