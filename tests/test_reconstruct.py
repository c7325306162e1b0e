import hashlib
import itertools
import json

import numpy as np
import pytest

import brepcodec.io as bio
from brepcodec.assignment import InfeasibleAssignmentError, solve_square
from brepcodec.codec import CodecConfig, VocabLayout, parse, tokenize
from brepcodec.model import euler_report, normalize, validate
from brepcodec.geometry import BicubicPatch, Plane, _bernstein3, frame_for_normal
from brepcodec.pipeline import decode_tokens, encode_model, lossless_codebook, roundtrip_check
from brepcodec.primitives import (
    box,
    l_bracket,
    merge_models,
    ngon_prism,
    seam_cylinder,
    through_hole_box,
)
from brepcodec.reconstruct import (
    ELEVATED_COST,
    PROJECT_BLOCK,
    UV_PROBE_GRID,
    Drafts,
    LoopDraft,
    _PROBE_UV,
    _project,
    attach_inner_loops,
    classify_loops,
    fit_face,
    fit_faces,
    materialize_half_edges,
    plane_gate,
    reconstruct,
    solve_next_map,
    star_problems,
    trace_loops,
)
from brepcodec.lm import SamplerConfig, fit_ngram, sample_sequence
from brepcodec.metrics import surface_sample
from brepcodec.rq import train_codebook
from brepcodec.sampler import extract_vhp
from brepcodec.synth import FAMILIES, CorpusSpec, synth_corpus
from brepcodec.codec import model_descriptors, descriptor_dim_weights

CFG = CodecConfig()


def records_for(model):
    normed, _ = normalize(model)
    cb = lossless_codebook(normed)
    return parse(tokenize(normed, cb, CFG), cb, CFG), normed


def shell_tuples(model):
    return sorted((s.vertices, s.edges, s.faces, s.inner_loops, s.genus)
                  for s in euler_report(model))


def traced_loops(src):
    """Records of ``src`` taken to drafts and classified loops."""
    rs, _ = records_for(src)
    drafts, verts = materialize_half_edges(rs, CFG.sampling)
    next_map, *_ = solve_next_map(drafts, verts.shape[0], CFG.sampling)
    loops = trace_loops(next_map)
    classify_loops(loops, drafts)
    return loops, drafts


def svd_plane_fit(points):
    """Centroid, unit normal and RMS residual of the least-squares plane."""
    centroid = points.mean(axis=0)
    _, _, vt = np.linalg.svd(points - centroid, full_matrices=False)
    normal = vt[-1]
    res = (points - centroid) @ normal
    return centroid, normal, float(np.sqrt(np.mean(res**2)))


def reference_plane_face(loop, drafts):
    """One loop's plane, pcurves and residual, computed on its own.

    The SVD normal, `frame_for_normal`, a 5% pad around the samples, and a
    flipped v axis where the curve samples wind clockwise in UV.
    """
    runs = [drafts.curve[d] for d in loop.drafts]
    pts = np.vstack(runs + [drafts.surface[d].reshape(-1, 3) for d in loop.drafts])
    centroid, normal, rms = svd_plane_fit(pts)
    u0, v0 = frame_for_normal(normal)
    st = (pts - centroid) @ np.stack([u0, v0], axis=1)
    pad = 0.05 * max(np.ptp(st[:, 0]), np.ptp(st[:, 1]), 1e-9)
    lo = st.min(axis=0) - pad
    span = np.ptp(st, axis=0) + 2 * pad

    def uv_of(p):
        return ((p - centroid) @ np.stack([u0, v0], axis=1) - lo) / span

    cycle = uv_of(np.concatenate([run[:-1] for run in runs]))
    x, y = cycle[:, 0], cycle[:, 1]
    area = 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)
    origin = centroid + lo[0] * u0 + lo[1] * v0
    pcurves = {d: uv_of(drafts.curve[d]) for d in loop.drafts}
    if area >= 0:
        return Plane(origin, span[0] * u0, span[1] * v0), pcurves, rms
    pcurves = {d: np.stack([uv[:, 0], 1.0 - uv[:, 1]], axis=-1) for d, uv in pcurves.items()}
    return Plane(origin + span[1] * v0, span[0] * u0, -span[1] * v0), pcurves, rms


def assert_same_plane(a, b, tol=1e-12):
    for attr in ("origin", "u_vec", "v_vec"):
        assert np.abs(getattr(a, attr) - getattr(b, attr)).max() <= tol, attr


class TestHungarian:
    def test_brute_force_parity(self):
        rng = np.random.default_rng(11)
        for _ in range(150):
            n = int(rng.integers(2, 6))
            c = rng.random((n, n))
            c[rng.random((n, n)) < 0.3] = np.inf
            try:
                cols, total = solve_square(c)
            except InfeasibleAssignmentError:
                feasible = any(
                    np.isfinite([c[i, p[i]] for i in range(n)]).all()
                    for p in itertools.permutations(range(n)))
                assert not feasible
                continue
            best = min((sum(c[i, p[i]] for i in range(n))
                        for p in itertools.permutations(range(n))
                        if np.isfinite([c[i, p[i]] for i in range(n)]).all()),
                       default=np.inf)
            assert np.isclose(total, best)

    def test_forbidden_diagonal_5x5(self):
        rng = np.random.default_rng(5)
        c = rng.random((5, 5))
        np.fill_diagonal(c, np.inf)
        cols, total = solve_square(c)
        assert np.all(cols != np.arange(5))
        best = min(sum(c[i, p[i]] for i in range(5))
                   for p in itertools.permutations(range(5))
                   if all(p[i] != i for i in range(5)))
        assert np.isclose(total, best)


class TestMaterialize:
    def test_lossless_averaging_noop_and_twin_exactness(self, cube_normed):
        rs, _ = records_for(box())
        drafts, verts = materialize_half_edges(rs, CFG.sampling)
        assert drafts.origin.shape == (24,) and len(rs.components[0].edges) == 12
        # drafts 2k, 2k + 1 run edge k from i to j and back
        assert drafts.origin.tolist() == [v for e in rs.components[0].edges for v in e]
        for d in range(24):
            assert np.array_equal(drafts.curve[d], drafts.curve[d ^ 1][::-1])

    def test_mirrored_perturbation_cancels(self):
        rs, _ = records_for(box())
        comp = rs.components[0]
        clean = materialize_half_edges(rs, CFG.sampling)[0]
        base_fwd = clean.curve[0].copy()

        nc, ns = CFG.sampling.n_curve, CFG.sampling.n_surface
        delta = 1e-3
        ij = comp.descriptors[0].copy()    # edge 0, earlier -> later
        ji = comp.descriptors[1].copy()    # edge 0, later -> earlier
        hp = ij[: nc * ns * 3].reshape(nc, ns, 3)
        hp[:, 0, :] += delta
        ij[: nc * ns * 3] = hp.reshape(-1)
        hp2 = ji[: nc * ns * 3].reshape(nc, ns, 3)
        hp2[::-1, 0, :] -= delta     # mirrored indices
        ji[: nc * ns * 3] = hp2.reshape(-1)
        comp.descriptors[0], comp.descriptors[1] = ij, ji

        drafts, _ = materialize_half_edges(rs, CFG.sampling)
        assert np.allclose(drafts.curve[0], base_fwd, atol=1e-12)

    def test_descriptor_length_mismatch_raises(self):
        rs, _ = records_for(box())
        rs.components[0].descriptors = rs.components[0].descriptors[:, :13]
        with pytest.raises(Exception):
            materialize_half_edges(rs, CFG.sampling)


class TestAssignmentAtVertices:
    @staticmethod
    def axis_drafts(edges, curve_x, next_x):
        """Drafts of ``edges`` whose successor samples sit on the x axis: each
        draft's first on-curve samples at ``curve_x``, its next ones at ``next_x``."""
        nn = CFG.sampling.n_next
        curve = np.zeros((2 * len(edges), CFG.sampling.n_curve + 2, 3))
        curve[:, 1:1 + nn, 0] = np.array(curve_x, dtype=float)[:, None]
        nxt = np.zeros((2 * len(edges), nn, 3))
        nxt[:, :, 0] = np.array(next_x, dtype=float)[:, None]
        return Drafts(origin=np.array(edges).reshape(-1), curve=curve,
                      surface=np.zeros((2 * len(edges), 1, 1, 3)), next=nxt,
                      label=np.ones(2 * len(edges), dtype=int))

    def test_degree_two_unique_feasible(self):
        # vertex 0: incoming 1 and 3, outgoing 0 and 2, twins forbidden: one
        # legal matching, chosen even though the forbidden pairing costs 0
        drafts = self.axis_drafts([(0, 1), (0, 1)], curve_x=[0, 0, 2.5, 0],
                                  next_x=[0, 0, 0, 2.5])
        next_map, total, infeasible, _ = solve_next_map(drafts, 1, CFG.sampling)
        assert not infeasible
        assert sorted(next_map.items()) == [(1, 2), (3, 0)]
        assert total == 20.0

    def test_degree_one_falls_back_to_twin(self):
        drafts = self.axis_drafts([(0, 1)], curve_x=[0, 0], next_x=[0, 0.25])
        next_map, total, infeasible, _ = solve_next_map(drafts, 1, CFG.sampling)
        assert infeasible == [0]
        assert next_map == {1: 0}
        assert total == 1.0

    def test_exact_records_recover_source_next_map(self):
        for src in (box(), ngon_prism(n=5), through_hole_box(), seam_cylinder()):
            rs, normed = records_for(src)
            drafts, verts = materialize_half_edges(rs, CFG.sampling)
            next_map, total, infeasible, elevated = solve_next_map(
                drafts, verts.shape[0], CFG.sampling)
            assert total < 1e-9
            assert not infeasible and not elevated
            loops = trace_loops(next_map)
            assert sorted(len(l.drafts) for l in loops) == \
                sorted(len(l.halfedges) for l in normed.loops)

    def test_noise_below_quarter_margin_preserves_next_map(self):
        rng = np.random.default_rng(17)
        for src in (box(), ngon_prism(n=6), through_hole_box()):
            rs, _ = records_for(src)
            drafts, verts = materialize_half_edges(rs, CFG.sampling)
            clean, *_ = solve_next_map(drafts, verts.shape[0], CFG.sampling)
            nn = CFG.sampling.n_next
            for problem in star_problems(drafts, nn):
                cands = [drafts.curve[j, 1:1 + nn] for j in problem.outgoing]
                dmin = min(
                    np.linalg.norm(a - b, axis=1).sum()
                    for a, b in itertools.combinations(cands, 2))
                for i in problem.incoming:
                    noise = rng.normal(size=(nn, 3))
                    noise *= 0.2 * dmin / np.linalg.norm(noise, axis=1).sum()
                    drafts.next[i] = drafts.next[i] + noise
            noisy, *_ = solve_next_map(drafts, verts.shape[0], CFG.sampling)
            assert noisy == clean


def per_star_next_map(drafts, n_vertices, n_next):
    """`solve_next_map` by `solve_square`, one star at a time in ascending
    vertex order: twins forbidden, allowed back when that is infeasible."""
    next_map, total, infeasible, elevated = {}, 0.0, [], []
    for p in star_problems(drafts, n_next, n_vertices):
        try:
            cols, cost = solve_square(np.where(p.forbidden, np.inf, p.cost))
        except InfeasibleAssignmentError:
            cols, cost = solve_square(p.cost)
            infeasible.append(p.vertex)
        next_map.update((a, p.outgoing[c]) for a, c in zip(p.incoming, cols))
        total += cost
        if cost > ELEVATED_COST:
            elevated.append(p.vertex)
    return next_map, total, infeasible, elevated


def multigraph_drafts(rng, n_vertices, n_edges, kind):
    """Drafts of a random multigraph (self-loops and parallel edges allowed).

    ``kind`` sets the successor geometry: ``random`` samples, ``twin`` (each
    draft's cheapest successor is its own twin), or ``integer`` and ``near``
    (points on the x axis at integer offsets, so costs are integers with
    exact ties; ``near`` moves them by multiples of 1e-12).
    """
    nn = CFG.sampling.n_next
    origin = rng.integers(n_vertices, size=2 * n_edges)
    curve = rng.normal(size=(2 * n_edges, CFG.sampling.n_curve + 2, 3))
    nxt = rng.normal(size=(2 * n_edges, nn, 3))
    if kind == "twin":
        nxt = curve[np.arange(2 * n_edges) ^ 1, 1:1 + nn] + 0.1 * nxt
    elif kind in ("integer", "near"):
        curve[:, 1:1 + nn] = 0.0
        nxt[:] = 0.0
        curve[:, 1:1 + nn, 0] = rng.integers(4, size=(2 * n_edges, 1))
        nxt[:, :, 0] = rng.integers(4, size=(2 * n_edges, 1))
        if kind == "near":
            curve[:, 1:1 + nn, 0] += 1e-12 * rng.integers(3, size=(2 * n_edges, 1))
    return Drafts(origin=origin, curve=curve, surface=np.zeros((2 * n_edges, 1, 1, 3)),
                  next=nxt, label=np.ones(2 * n_edges, dtype=int))


class TestStarSolve:
    """`solve_next_map` gives, bit for bit, what `solve_square` gives star by star."""

    @pytest.mark.parametrize("kind", ["random", "twin", "integer", "near"])
    def test_matches_per_star_solve(self, kind):
        rng = np.random.default_rng(["random", "twin", "integer", "near"].index(kind))
        degrees = set()
        for trial in range(150):
            n_vertices = int(rng.integers(1, 12))
            drafts = multigraph_drafts(rng, n_vertices, int(rng.integers(1, 20)), kind)
            # the last case leaves the highest vertex out, as records can
            limit = n_vertices - (trial % 5 == 4)
            got = solve_next_map(drafts, limit, CFG.sampling)
            want = per_star_next_map(drafts, limit, CFG.sampling.n_next)
            assert list(got[0].items()) == list(want[0].items())
            assert float(got[1]).hex() == float(want[1]).hex()
            assert got[2:] == want[2:]
            degrees.update(np.bincount(drafts.origin).tolist())
        assert set(range(1, 9)) <= degrees

    def test_nan_cost_raises(self):
        rng = np.random.default_rng(3)
        for n_vertices, n_edges in ((1, 1), (2, 1), (3, 6), (5, 14)):
            drafts = multigraph_drafts(rng, n_vertices, n_edges, "random")
            drafts.next[-1, 2, 1] = np.nan
            with pytest.raises(ValueError, match="NaN"):
                per_star_next_map(drafts, n_vertices, CFG.sampling.n_next)
            with pytest.raises(ValueError, match="NaN"):
                solve_next_map(drafts, n_vertices, CFG.sampling)


class TestLoops:
    def test_cube_loops(self):
        rs, _ = records_for(box())
        drafts, verts = materialize_half_edges(rs, CFG.sampling)
        next_map, *_ = solve_next_map(drafts, verts.shape[0], CFG.sampling)
        loops = trace_loops(next_map)
        assert len(loops) == 6
        assert all(len(l.drafts) == 4 for l in loops)

    def test_hole_box_loops(self):
        rs, _ = records_for(through_hole_box())
        drafts, verts = materialize_half_edges(rs, CFG.sampling)
        next_map, *_ = solve_next_map(drafts, verts.shape[0], CFG.sampling)
        loops = trace_loops(next_map)
        assert len(loops) == 12
        assert all(len(l.drafts) == 4 for l in loops)
        classify_loops(loops, drafts)
        assert sum(l.kind == "inner" for l in loops) == 2

    def test_orbit_partition_property(self):
        rng = np.random.default_rng(23)
        n = 40
        perm = rng.permutation(n)
        loops = trace_loops({i: int(perm[i]) for i in range(n)})
        sizes = [len(l.drafts) for l in loops]
        assert sum(sizes) == n
        seen = set()
        for l in loops:
            seen.update(l.drafts)
        assert seen == set(range(n))

    def test_classification_votes(self):
        labels = np.array([1, 1, 1, 0, 0, 0, 0, 1, 1, 0, 1, 0])
        drafts = Drafts(origin=np.arange(12), curve=np.zeros((12, 8, 3)),
                        surface=np.zeros((12, 6, 3, 3)), next=np.zeros((12, 4, 3)),
                        label=labels)
        loops = [LoopDraft(drafts=[0, 1, 2, 3]),   # 3 outer, 1 inner
                 LoopDraft(drafts=[4, 5, 6, 7]),   # 3 inner, 1 outer
                 LoopDraft(drafts=[8, 9, 10, 11])]  # 2/2 tie
        classify_loops(loops, drafts)
        assert [l.kind for l in loops] == ["outer", "inner", "outer"]


def synthetic_square_loop(z=0.3):
    """Four coplanar drafts tracing the unit square at height z."""
    corners = np.array([[0, 0, z], [1, 0, z], [1, 1, z], [0, 1, z]], dtype=float)
    curve, surface = [], []
    for k in range(4):
        a, b = corners[k], corners[(k + 1) % 4]
        t = np.arange(1, 7)[:, None] / 7.0
        interior = a + t * (b - a)
        inward = np.array([[0, 1, 0], [-1, 0, 0], [0, -1, 0], [1, 0, 0.0]])[k]
        surface.append(interior[:, None, :] + np.arange(1, 4)[None, :, None] * 0.05 * inward)
        curve.append(np.vstack([a, interior, b]))
    curve = np.array(curve)
    return LoopDraft(drafts=[0, 1, 2, 3]), Drafts(
        origin=np.arange(4), curve=curve, surface=np.array(surface), next=curve[:, 1:5],
        label=np.ones(4, dtype=int))


class TestFitFace:
    def test_coplanar_loop_gives_plane(self):
        loop, drafts = synthetic_square_loop(z=0.3)
        fitted = fit_face(loop, drafts)
        assert fitted.planar
        assert fitted.rms <= 1e-9
        s = fitted.surface
        n = np.cross(s.u_vec, s.v_vec)
        assert abs(abs(n[2]) - np.linalg.norm(n)) < 1e-12

    def test_roundtrip_face_keeps_plane_despite_quantized_endpoints(self):
        # dequantized endpoints sit up to half a bin off the source plane;
        # that residual is within the plane gate, so the plane is kept
        rs, _ = records_for(box())
        drafts, verts = materialize_half_edges(rs, CFG.sampling)
        next_map, *_ = solve_next_map(drafts, verts.shape[0], CFG.sampling)
        loops = trace_loops(next_map)
        fitted = fit_face(loops[0], drafts)
        assert fitted.planar
        assert fitted.rms < 1.0 / 256.0

    def test_cylinder_wall_prefers_bicubic(self):
        rs, _ = records_for(seam_cylinder(radius=0.5, height=1.0))
        drafts, verts = materialize_half_edges(rs, CFG.sampling)
        next_map, *_ = solve_next_map(drafts, verts.shape[0], CFG.sampling)
        loops = trace_loops(next_map)
        wall = max(loops, key=lambda l: len(l.drafts))
        assert len(wall.drafts) == 4
        pts = np.vstack([drafts.curve[d] for d in wall.drafts]
                        + [drafts.surface[d].reshape(-1, 3) for d in wall.drafts])
        _, _, plane_rms = svd_plane_fit(pts)
        assert plane_rms > plane_gate(drafts.noise)   # plane must be rejected
        fitted = fit_face(wall, drafts)
        assert not fitted.planar
        assert fitted.rms < plane_rms

    def test_quantized_loop_stays_near_decoded_samples(self):
        # a genuinely lossy codebook; the fitted face tracks the decoded
        # (RQ-reconstructed) samples within 3x the measured corpus error
        models = [box(size=s) for s in [(1, 1, 1), (1.2, 0.8, 1.0),
                                        (0.7, 1.3, 0.9), (1.1, 1.1, 0.6)]]
        normed = [normalize(m)[0] for m in models]
        descs = np.concatenate([model_descriptors(m, CFG.sampling)
                                for m in normed])
        cb = train_codebook(descs, 4, 16, seed=0,
                            dim_weights=descriptor_dim_weights(CFG.sampling))
        from brepcodec.rq import reconstruction_rms

        rms = reconstruction_rms(descs, cb)
        assert rms > 1e-4  # the quantizer is actually lossy here
        rs = parse(tokenize(normed[0], cb, CFG), cb, CFG)
        drafts, verts = materialize_half_edges(rs, CFG.sampling)
        next_map, *_ = solve_next_map(drafts, verts.shape[0], CFG.sampling)
        loops = trace_loops(next_map)
        worst = 0.0
        for loop in loops:
            fitted = fit_face(loop, drafts)
            decoded = np.vstack([drafts.curve[d][1:-1] for d in loop.drafts]
                                + [drafts.surface[d].reshape(-1, 3) for d in loop.drafts])
            if fitted.planar:
                s = fitted.surface
                n = np.cross(s.u_vec, s.v_vec)
                n /= np.linalg.norm(n)
                worst = max(worst, float(np.abs((decoded - s.origin) @ n).max()))
        assert worst <= 3.0 * rms


class TestBatchedFit:
    SOURCES = [box, ngon_prism, seam_cylinder, through_hole_box]

    @pytest.mark.parametrize("maker", SOURCES, ids=["box", "prism", "cylinder", "hole"])
    def test_planes_match_per_loop_reference(self, maker):
        loops, drafts = traced_loops(maker())
        outer = [l for l in loops if l.kind == "outer"]
        faces = fit_faces(outer, drafts)
        assert len(faces) == len(outer)
        for loop, fitted in zip(outer, faces):
            plane, pcurves, rms = reference_plane_face(loop, drafts)
            assert fitted.planar == (rms <= plane_gate(drafts.noise))
            if not fitted.planar:
                assert isinstance(fitted.surface, BicubicPatch)
                continue
            assert abs(fitted.rms - rms) <= 1e-12
            assert_same_plane(fitted.surface, plane)
            assert sorted(fitted.pcurves) == sorted(pcurves)
            for d, uv in pcurves.items():
                assert np.abs(fitted.pcurves[d].points - uv).max() <= 1e-12

    def test_one_loop_call_matches_the_batch(self):
        loops, drafts = traced_loops(through_hole_box())
        outer = [l for l in loops if l.kind == "outer"]
        for loop, batched in zip(outer, fit_faces(outer, drafts)):
            alone = fit_face(loop, drafts)
            assert alone.planar == batched.planar
            assert_same_plane(alone.surface, batched.surface)

    def test_negated_normal_gives_the_same_plane(self, monkeypatch):
        loops, drafts = traced_loops(merge_models([through_hole_box(),
                                                   ngon_prism(n=5, at=(2.0, 0, 0))]))
        outer = [l for l in loops if l.kind == "outer"]
        plain = fit_faces(outer, drafts)
        eigh = np.linalg.eigh

        def negated(a):
            w, v = eigh(a)
            return w, -v

        monkeypatch.setattr(np.linalg, "eigh", negated)
        flipped = fit_faces(outer, drafts)
        for a, b in zip(plain, flipped):
            assert a.planar and b.planar
            assert_same_plane(a.surface, b.surface)
            for d in a.pcurves:
                assert np.abs(a.pcurves[d].points - b.pcurves[d].points).max() <= 1e-12

    @pytest.mark.parametrize("maker", SOURCES, ids=["box", "prism", "cylinder", "hole"])
    def test_planar_pcurves_map_back_onto_the_curve(self, maker):
        loops, drafts = traced_loops(maker())
        outer = [l for l in loops if l.kind == "outer"]
        for fitted in fit_faces(outer, drafts):
            if not fitted.planar:
                continue
            s = fitted.surface
            n = np.cross(s.u_vec, s.v_vec)
            n /= np.linalg.norm(n)
            for d, pc in fitted.pcurves.items():
                pts = drafts.curve[d]
                foot = pts - np.outer((pts - s.origin) @ n, n)
                assert np.abs(s.point(pc.points[:, 0], pc.points[:, 1]) - foot).max() <= 1e-12

    def test_star_costs_match_per_pair_reference(self):
        # the cylinder's caps are one-draft loops, the box's faces four-draft
        rs, _ = records_for(merge_models([box(), seam_cylinder(at=(2.0, 0, 0))]))
        drafts, verts = materialize_half_edges(rs, CFG.sampling)
        loops = trace_loops(solve_next_map(drafts, verts.shape[0], CFG.sampling)[0])
        assert {len(l.drafts) for l in loops} >= {1, 4}
        nn = CFG.sampling.n_next
        # vertex -> (incoming, outgoing) draft ids, each ascending, draft by draft
        stars = {}
        for d, v in enumerate(drafts.origin.tolist()):
            stars.setdefault(int(drafts.origin[d ^ 1]), ([], []))[0].append(d)
            stars.setdefault(v, ([], []))[1].append(d)
        problems = star_problems(drafts, nn)
        assert [p.vertex for p in problems] == sorted(stars)
        for p in problems:
            assert (p.incoming, p.outgoing) == stars[p.vertex]
            for a, di in enumerate(p.incoming):
                for b, dj in enumerate(p.outgoing):
                    ref = np.linalg.norm(drafts.next[di] - drafts.curve[dj][1:1 + nn],
                                         axis=1).sum()
                    assert abs(p.cost[a, b] - ref) <= 1e-12
                    assert p.forbidden[a, b] == ((di ^ 1) == dj)   # di's twin


def dense_nearest_node(points, patch):
    """The probe-grid search written out: every node's probe by the three-operand
    einsum, every squared distance summed x, y, z in turn, the lowest node on ties."""
    bu, bv = _bernstein3(_PROBE_UV[:, 0]), _bernstein3(_PROBE_UV[:, 1])
    probes = np.einsum("...i,...j,ijk->...k", bu, bv, patch.control)
    with np.errstate(over="ignore", invalid="ignore"):
        d = sum((points[:, None, c] - probes[None, :, c]) ** 2 for c in range(3))
    return _PROBE_UV[d.argmin(axis=1)]


def lattice_patch(z):
    """A patch whose x, y run over [0, 1]^2 with u, v, lifted by ``z`` (4, 4)."""
    g = np.linspace(0.0, 1.0, 4)
    return BicubicPatch(np.stack([*np.meshgrid(g, g, indexing="ij"), z], axis=-1))


class TestProject:
    @pytest.mark.parametrize("case", ["random", "nodes", "midpoints", "flat", "degenerate",
                                      "non-finite", "huge", "tiny", "blocks", "empty"])
    def test_equals_the_dense_grid_search(self, case):
        rng = np.random.default_rng(5)
        patch = lattice_patch(rng.random((4, 4)))
        points = rng.random((60, 3))
        if case == "nodes":           # exactly on probes, also the grid's corners
            probes = patch.point(_PROBE_UV[:, 0], _PROBE_UV[:, 1])
            points = probes[rng.integers(len(probes), size=60)]
            points[:4] = patch.control[[0, 0, 3, 3], [0, 3, 0, 3]]
        elif case == "midpoints":     # on the flat lattice, equidistant from 2 or 4 nodes
            patch = lattice_patch(np.zeros((4, 4)))
            k = rng.integers(0, UV_PROBE_GRID - 1, size=(60, 2)) + rng.integers(0, 2, (60, 2)) * 0.5
            points = np.concatenate([k / (UV_PROBE_GRID - 1), rng.random((60, 1))], axis=1)
        elif case == "flat":
            patch = lattice_patch(np.full((4, 4), 0.25))
        elif case == "degenerate":    # every probe is one point: all nodes tie
            patch = BicubicPatch(np.broadcast_to(rng.random(3), (4, 4, 3)))
        elif case == "non-finite":
            points[[3, 10, 11]] = [[np.nan, 0, 0], [np.inf, 0.5, 0.5], [-np.inf, np.inf, 0]]
            points[20] = [1e200, 0, 0]
        elif case == "huge":
            patch = BicubicPatch(patch.control * 1e150)
            points *= 1e150
        elif case == "tiny":
            patch = BicubicPatch(patch.control * 1e-160)
            points *= 1e-160
        elif case == "blocks":
            points = rng.normal(size=(3 * PROJECT_BLOCK + 5, 3))
        elif case == "empty":
            points = points[:0]
        assert np.array_equal(_project(points, patch), dense_nearest_node(points, patch))

    def test_equals_the_dense_grid_search_on_random_patches(self):
        rng = np.random.default_rng(8)
        for k in range(200):
            scale = 10.0 ** rng.integers(-4, 5)
            control = scale * rng.normal(size=(4, 4, 3))
            if k % 3 == 0:
                control = np.round(control / scale * 2) / 2 * scale    # coarse: many ties
            patch = BicubicPatch(control)
            points = scale * rng.normal(size=(int(rng.integers(1, 90)), 3))
            points[: len(points) // 3] = np.round(points[: len(points) // 3] / scale) * scale
            assert np.array_equal(_project(points, patch), dense_nearest_node(points, patch))

    def test_blocked_search_equals_one_block(self):
        rng = np.random.default_rng(3)
        grid = np.stack(np.meshgrid(np.linspace(0, 1, 4), np.linspace(0, 1, 4),
                                    indexing="ij"), axis=-1)
        patch = BicubicPatch(np.concatenate([grid, rng.random((4, 4, 1))], axis=-1))
        points = rng.random((2 * PROJECT_BLOCK + 37, 3))
        probes = patch.point(_PROBE_UV[:, 0], _PROBE_UV[:, 1])
        d = ((points[:, None, :] - probes[None, :, :]) ** 2).sum(axis=2)
        assert np.array_equal(_project(points, patch), _PROBE_UV[d.argmin(axis=1)])
        assert _project(points[:0], patch).shape == (0, 2)


class TestAttachInner:
    def test_through_hole_attachment(self):
        rs, normed = records_for(through_hole_box())
        drafts, verts = materialize_half_edges(rs, CFG.sampling)
        next_map, *_ = solve_next_map(drafts, verts.shape[0], CFG.sampling)
        loops = trace_loops(next_map)
        classify_loops(loops, drafts)
        outer = [l for l in loops if l.kind == "outer"]
        inner = [l for l in loops if l.kind == "inner"]
        faces = [fit_face(l, drafts) for l in outer]
        assign = attach_inner_loops(inner, faces, drafts)
        # exhaustive recomputation, face by face: the assigned face attains
        # the minimum mean distance to the clipped projections
        def mean_distance(pts, surface):
            uv = np.clip(_project(pts, surface), 0.0, 1.0)
            return np.linalg.norm(pts - surface.point(uv[:, 0], uv[:, 1]), axis=1).mean()

        for loop, fi in zip(inner, assign):
            pts = np.concatenate([drafts.curve[d][:-1] for d in loop.drafts])
            means = [mean_distance(pts, f.surface) for f in faces]
            assert fi == int(np.argmin(means))
            # the loop lies on its host plate up to quantized endpoints
            assert means[fi] < 1.0 / 256.0
            others = [m for k, m in enumerate(means) if k != fi]
            assert min(others) > 10 * means[fi]

    def test_single_face_single_inner(self):
        rs, _ = records_for(through_hole_box())
        drafts, verts = materialize_half_edges(rs, CFG.sampling)
        next_map, *_ = solve_next_map(drafts, verts.shape[0], CFG.sampling)
        loops = trace_loops(next_map)
        classify_loops(loops, drafts)
        inner = [l for l in loops if l.kind == "inner"][:1]
        outer = [l for l in loops if l.kind == "outer"][:1]
        faces = [fit_face(outer[0], drafts)]
        assert attach_inner_loops(inner, faces, drafts) == [0]

    @pytest.mark.parametrize("plate_kind", ["plane", "bicubic"])
    def test_distance_is_to_the_clipped_patch(self, plate_kind):
        # the unit square lies on the upper-right quarter of a plate and 0.05
        # under a tile of its own size: the plate is nearer only when every
        # sample is measured to the plate's own point, not to its edge
        from brepcodec.reconstruct import FittedFace

        loop, drafts = synthetic_square_loop(z=0.0)
        lo, side = -1.0, 2.05
        if plate_kind == "plane":
            plate = Plane((lo, lo, 0.0), (side, 0, 0), (0, side, 0))
        else:
            t = lo + side * np.arange(4) / 3.0
            plate = BicubicPatch(np.stack(np.meshgrid(t, t, [0.0], indexing="ij"),
                                          axis=-1)[:, :, 0])
        tile = Plane((0.0, 0.0, 0.05), (1, 0, 0), (0, 1, 0))
        faces = [FittedFace(surface=s, pcurves={}, rms=0.0, planar=True)
                 for s in (tile, plate)]
        part = LoopDraft(drafts=[0])    # fewer samples than the whole loop
        assert attach_inner_loops([loop, part], faces, drafts) == [1, 1]

    def test_no_faces_raises(self):
        with pytest.raises(ValueError):
            attach_inner_loops([LoopDraft(drafts=[0])], [], [])


class TestReconstructPipeline:
    @pytest.mark.parametrize("maker", [box, ngon_prism, seam_cylinder,
                                       through_hole_box],
                             ids=["box", "prism", "cylinder", "hole"])
    def test_lossless_roundtrip(self, maker):
        src = maker()
        rs, normed = records_for(src)
        model, report = reconstruct(rs, CFG.sampling)
        assert model is not None and report.success
        assert report.total_assignment_cost < 1e-9
        assert shell_tuples(model) == shell_tuples(normed)
        assert validate(model).watertight

    def test_desk_codebook_roundtrip(self):
        src = merge_models([box(), seam_cylinder(at=(2.0, 0, 0))])
        normed, _ = normalize(src)
        descs = model_descriptors(normed, CFG.sampling)
        cb = train_codebook(descs, 4, 24, seed=0,
                            dim_weights=descriptor_dim_weights(CFG.sampling))
        res = roundtrip_check(src, cb, CFG)
        assert res.ok
        assert res.max_vertex_error <= 1 / 256 + 1e-9

    def test_lossy_roundtrip_keeps_surface_types(self):
        # RQ noise on the decoded samples must not turn planes into patches
        from brepcodec.rq import reconstruction_rms

        sources = [box(), ngon_prism(n=5), through_hole_box(), l_bracket(),
                   seam_cylinder()]
        descs = np.concatenate([model_descriptors(normalize(m)[0], CFG.sampling)
                                for m in sources])
        cb = train_codebook(descs, 4, 16, seed=0,
                            dim_weights=descriptor_dim_weights(CFG.sampling))
        assert reconstruction_rms(descs, cb) > 1e-4  # lossy
        for src in sources:
            model, report = decode_tokens(encode_model(src, cb, CFG), cb, CFG)
            assert model is not None and report.success
            planes = [isinstance(f.surface, Plane) for f in src.faces]
            rebuilt = [isinstance(f.surface, Plane) for f in model.faces]
            assert sorted(rebuilt) == sorted(planes)

    def test_zeroed_next_samples_flagged(self):
        rs, _ = records_for(box())
        comp = rs.components[0]
        nc, ns, nn = (CFG.sampling.n_curve, CFG.sampling.n_surface,
                      CFG.sampling.n_next)
        d = comp.descriptors[0].copy()     # edge 0, earlier -> later
        d[nc * ns * 3: nc * ns * 3 + nn * 3] = 0.0
        comp.descriptors[0] = d
        model, report = reconstruct(rs, CFG.sampling)
        assert report.elevated_cost_vertices
        assert model is not None

    def test_round_trip_runs_two_euler_reports(self, monkeypatch):
        # one for the source's shells and one in the rebuild's validate: the
        # encode's extract_vhp runs only the twin and loop checks
        import brepcodec.model as model_mod
        import brepcodec.pipeline as pipeline_mod

        src = through_hole_box()
        cb = lossless_codebook(normalize(src)[0])
        calls, original = [], model_mod.euler_report
        counted = lambda model: calls.append(model) or original(model)   # noqa: E731
        monkeypatch.setattr(model_mod, "euler_report", counted)
        monkeypatch.setattr(pipeline_mod, "euler_report", counted)
        assert roundtrip_check(src, cb).ok
        assert len(calls) == 2

    def test_report_counts_face_kinds(self, monkeypatch):
        import brepcodec.reconstruct as rec

        rs, _ = records_for(merge_models([box(), seam_cylinder(at=(2.0, 0, 0))]))
        model, report = reconstruct(rs, CFG.sampling)
        planes = sum(isinstance(f.surface, Plane) for f in model.faces)
        assert (report.planar_faces, report.bicubic_faces, report.bicubic_rejected) \
            == (planes, len(model.faces) - planes, 0)
        assert report.bicubic_faces == 1                  # the cylinder's wall
        # a refused bicubic leaves the wall on its plane, counted as refused
        monkeypatch.setattr(rec, "_bicubic_face", lambda *args: None)
        model, report = reconstruct(rs, CFG.sampling)
        assert (report.planar_faces, report.bicubic_faces, report.bicubic_rejected) \
            == (len(model.faces), 0, 1)

    def test_report_times_every_stage(self):
        rs, _ = records_for(through_hole_box())
        model, report = reconstruct(rs, CFG.sampling)
        assert model is not None and report.inner_loops_attached == 2
        assert set(report.stage_ms) == {"materialize", "next_map", "loops", "fit",
                                        "attach", "assemble", "validate"}
        assert all(t >= 0.0 for t in report.stage_ms.values())

    def test_report_always_produced(self):
        from brepcodec.codec import VertexRecordSet

        model, report = reconstruct(VertexRecordSet(components=[]), CFG.sampling)
        assert model is None
        assert report.notes


def decode_digest(decoded) -> str:
    """sha256 over the JSON of each (model, report) decision of a decode."""
    h = hashlib.sha256()
    for model, report in decoded:
        h.update(json.dumps([
            None if model is None else bio.model_to_dict(model),
            report.success, report.total_assignment_cost, report.infeasible_vertices,
            report.elevated_cost_vertices, report.loop_count, report.faces_built,
            report.inner_loops_attached, report.notes]).encode())
    return h.hexdigest()


@pytest.fixture(scope="module")
def lossy_decodes():
    """A stratified corpus under a lossy 4 x 32 codebook: its own tokens and
    40 order-2 n-gram samples at T = 0.7, each decoded.  Most samples are no
    solid, so their decodes run through infeasible stars and the fallbacks."""
    spec = CorpusSpec(counts={f: 3 for f in FAMILIES}, components=(1, 3), seed=13)
    normed = [normalize(m)[0] for _, m in synth_corpus(spec)]
    cb = train_codebook(np.concatenate([model_descriptors(m, CFG.sampling) for m in normed]),
                        4, 32, seed=0, dim_weights=descriptor_dim_weights(CFG.sampling))
    seqs = [tokenize(m, cb, CFG) for m in normed]
    layout = VocabLayout.for_codebook(cb)
    lm = fit_ngram(seqs, order=2, vocab_size=layout.vocab_size)
    samples = [sample_sequence(lm, layout, SamplerConfig(seed=s, temperature=0.7))
               for s in range(40)]
    return ([decode_tokens(s, cb, CFG) for s in seqs],
            [decode_tokens(s.tokens, cb, CFG) for s in samples if not s.truncated])


# (decodes, watertight, digest) of each part.  Any change to the decoder
# that moves one bit of a rebuilt model or one report decision shows here.
GOLDEN_DECODES = {
    "corpus": (15, 15, "510a223a6871396485559c03dda065fccec314dc4ddb72638527d48fe73021d2"),
    "sampled": (40, 3, "ea5bc4164d45ed3dba82fab2e76bb9f9ff8a2aa748db7446b1c66cef0a9af0ca"),
}
# (decodes, bicubic faces, attached inner loops, digest) of the bicubic-rich corpus.
GOLDEN_BICUBIC_DECODES = (
    32, 29, 64, "34d9c07288c847c744b4dbf1197ebb7847432b47b46787bbf080a49059e7edc6")


@pytest.fixture(scope="module")
def bicubic_decodes():
    """Cylinders and holed boxes of 1-5 components under a lossy 4 x 256
    codebook, each decoded.  The corpus decodes above hold only 2 bicubic
    faces and 11 inner loops; these take the bicubic fit, its projector and
    the inner-loop attachment many times over."""
    spec = CorpusSpec(counts={"cylinder": 16, "hole_box": 16}, components=(1, 5), seed=7)
    normed = [normalize(m)[0] for _, m in synth_corpus(spec)]
    cb = train_codebook(np.concatenate([model_descriptors(m, CFG.sampling) for m in normed]),
                        4, 256, seed=0, dim_weights=descriptor_dim_weights(CFG.sampling))
    return [decode_tokens(tokenize(m, cb, CFG), cb, CFG) for m in normed]


# sha256 of the half-patch descriptors and of a 2,000-point surface cloud of
# the 32 watertight bicubic-rich decodes: rebuilt geometry (Poly2 pcurves,
# polyline curves, planar and bicubic faces) evaluated as the sampler and the
# metrics evaluate it.  Rebuilt faces walk to zero depth at some half-edges,
# which the sampler warns about.
GOLDEN_REBUILT_EVALUATION = (
    "c382b2a185cbacaab8e37fcd46999397df822ec348d84184f66cb568e6d5a3b8",
    "4560e9168c09cc383cf47a81bd6b1c72b0471c9c14b6a2f2bfbea3bcc0e0e742")


class TestDecodeGolden:
    @pytest.mark.parametrize("part", sorted(GOLDEN_DECODES))
    def test_decodes_are_pinned(self, lossy_decodes, part):
        decoded = lossy_decodes[sorted(GOLDEN_DECODES).index(part)]
        watertight = sum(report.success for _, report in decoded)
        assert (len(decoded), watertight, decode_digest(decoded)) == GOLDEN_DECODES[part]

    def test_bicubic_rich_decodes_are_pinned(self, bicubic_decodes):
        decoded = bicubic_decodes
        bicubic = sum(isinstance(f.surface, BicubicPatch) for m, _ in decoded for f in m.faces)
        inner = sum(report.inner_loops_attached for _, report in decoded)
        assert (len(decoded), bicubic, inner, decode_digest(decoded)) == GOLDEN_BICUBIC_DECODES

    @pytest.mark.filterwarnings("ignore::brepcodec.sampler.ZeroDepthWarning")
    def test_rebuilt_geometry_evaluation_is_pinned(self, bicubic_decodes):
        rebuilt = [m for m, report in bicubic_decodes if report.success]
        assert len(rebuilt) == 32
        vhp, cloud = hashlib.sha256(), hashlib.sha256()
        for m in rebuilt:
            vhp.update(extract_vhp(m, CFG.sampling).tobytes())
            cloud.update(surface_sample(m, 2000, seed=3).tobytes())
        assert (vhp.hexdigest(), cloud.hexdigest()) == GOLDEN_REBUILT_EVALUATION
