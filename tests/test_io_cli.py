import functools
import hashlib
import json
import operator
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import brepcodec.io as bio
import brepcodec.geometry as G
from brepcodec.cli import main
from brepcodec.codec import (CodecConfig, VocabLayout, descriptor_dim_weights,
                             model_descriptors, tokenize)
from brepcodec.lm import fit_ngram, sample_sequence, SamplerConfig
from brepcodec.model import compute_shells, normalize, validate
from brepcodec.pipeline import decode_tokens, encode_model, lossless_codebook
from brepcodec.primitives import (box, l_bracket, merge_models, ngon_prism, seam_cylinder,
                                  through_hole_box)
from brepcodec.rq import Codebook, train_codebook
from brepcodec.sampler import FaceCharts
from brepcodec.synth import CorpusSpec, synth_corpus

# The stages `reconstruct` times in its report.
STAGES = {"materialize", "next_map", "loops", "fit", "attach", "assemble", "validate"}


def rebuilt_seam_cylinder():
    """A decoded model: polyline edges, poly2 pcurves, a bicubic wall."""
    normed = normalize(seam_cylinder())[0]
    cb = lossless_codebook(normed)
    rebuilt, _ = decode_tokens(encode_model(normed, cb), cb)
    return rebuilt


# One record per geometry kind, as the model file stores it.
PINNED_RECORDS = [
    (G.LineSegment((0, 0, 0), (1, 0.5, -2)),
     '{"kind": "line", "p0": [0.0, 0.0, 0.0], "p1": [1.0, 0.5, -2.0]}'),
    (G.CircularArc((1, 2, 3), 0.5, (1, 0, 0), (0, 0, 1), 0.25, 1.75),
     '{"kind": "arc", "center": [1.0, 2.0, 3.0], "radius": 0.5, "x_axis": [1.0, 0.0, 0.0], '
     '"y_axis": [0.0, 0.0, 1.0], "theta0": 0.25, "theta1": 1.75}'),
    (G.PolylineCurve([(0, 0, 0), (1, 0, 0), (1, 1, 0.5)]),
     '{"kind": "polyline", "points": [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.5]]}'),
    (G.Plane((0, 0, 1), (2, 0, 0), (0, 0.5, 0)),
     '{"kind": "plane", "origin": [0.0, 0.0, 1.0], "u_vec": [2.0, 0.0, 0.0], '
     '"v_vec": [0.0, 0.5, 0.0]}'),
    (G.CylinderPatch((0, 0, 0), 0.5, (1, 0, 0), (0, 1, 0), (0, 0, 2), 0, 3.5),
     '{"kind": "cylinder", "center": [0.0, 0.0, 0.0], "radius": 0.5, '
     '"x_axis": [1.0, 0.0, 0.0], "y_axis": [0.0, 1.0, 0.0], "axis": [0.0, 0.0, 2.0], '
     '"u0": 0.0, "u1": 3.5}'),
    (G.BicubicPatch(np.arange(48).reshape(4, 4, 3) / 4),
     '{"kind": "bicubic", "control": '
     '[[[0.0, 0.25, 0.5], [0.75, 1.0, 1.25], [1.5, 1.75, 2.0], [2.25, 2.5, 2.75]], '
     '[[3.0, 3.25, 3.5], [3.75, 4.0, 4.25], [4.5, 4.75, 5.0], [5.25, 5.5, 5.75]], '
     '[[6.0, 6.25, 6.5], [6.75, 7.0, 7.25], [7.5, 7.75, 8.0], [8.25, 8.5, 8.75]], '
     '[[9.0, 9.25, 9.5], [9.75, 10.0, 10.25], [10.5, 10.75, 11.0], [11.25, 11.5, 11.75]]]}'),
    (G.Segment2((0, 0.25), (1, 0.75)),
     '{"kind": "seg2", "a": [0.0, 0.25], "b": [1.0, 0.75]}'),
    (G.Arc2((0.5, 0.5), 0.25, 0, 1.5),
     '{"kind": "arc2", "center": [0.5, 0.5], "radius": 0.25, "phi0": 0.0, "phi1": 1.5}'),
    (G.Poly2([(0, 0), (1, 0), (1, 0.5)]),
     '{"kind": "poly2", "points": [[0.0, 0.0], [1.0, 0.0], [1.0, 0.5]]}'),
]


class TestModelFiles:
    @pytest.mark.parametrize("maker", [box, ngon_prism, seam_cylinder,
                                       through_hole_box, l_bracket,
                                       rebuilt_seam_cylinder])
    def test_exact_roundtrip(self, tmp_path, maker):
        src = maker()
        path = tmp_path / "m.json"
        bio.save_model(src, path)
        loaded, tr = bio.load_model(path)
        assert tr is None
        assert bio.models_equal(src, loaded)

    def test_transform_preserved(self, tmp_path):
        m, rec = normalize(box(size=(2, 1, 1), at=(5, 5, 5)))
        path = tmp_path / "m.json"
        bio.save_model(m, path, transform=rec)
        loaded, tr = bio.load_model(path)
        assert tr == rec
        assert bio.models_equal(m, loaded)

    def test_malformed_json_reports_location(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "brepcodec-model/1", "vertices": [[0,')
        with pytest.raises(bio.FormatError, match="line"):
            bio.load_model(path)

    def test_geometry_records_are_pinned(self):
        assert sorted(g.kind for g, _ in PINNED_RECORDS) == sorted(G.KINDS)
        for g, text in PINNED_RECORDS:
            assert json.dumps(bio._geom_to_dict(g)) == text
            slot = next(s for s, kinds in bio.SLOT_KINDS.items() if g.kind in kinds)
            back = bio._geom_from_dict(json.loads(text), slot)
            assert type(back) is type(g)
            assert json.dumps(bio._geom_to_dict(back)) == text

    @pytest.mark.parametrize("kind", ["sphere", "bezier"])
    def test_unknown_geometry_kind(self, tmp_path, kind):
        d = bio.model_to_dict(box())
        d["faces"][0]["surface"]["kind"] = kind
        path = tmp_path / "m.json"
        path.write_text(json.dumps(d))
        with pytest.raises(bio.FormatError, match="unknown geometry kind"):
            bio.load_model(path)

    def test_non_finite_pcurve_rejected(self, tmp_path):
        d = bio.model_to_dict(seam_cylinder())
        arc = next(h["pcurve"] for h in d["halfedges"] if h["pcurve"]["kind"] == "arc2")
        arc["radius"] = float("nan")
        path = tmp_path / "m.json"
        path.write_text(json.dumps(d))
        with pytest.raises(bio.FormatError, match="non-finite radius"):
            bio.load_model(path)

    @pytest.mark.parametrize("radius", [0.0, -0.25])
    def test_non_positive_pcurve_radius_rejected(self, tmp_path, radius):
        d = bio.model_to_dict(seam_cylinder())
        arc = next(h["pcurve"] for h in d["halfedges"] if h["pcurve"]["kind"] == "arc2")
        arc["radius"] = radius
        path = tmp_path / "m.json"
        path.write_text(json.dumps(d))
        with pytest.raises(bio.FormatError, match="radius must be positive"):
            bio.load_model(path)

    def test_zero_sweep_arc_rejected(self, tmp_path):
        # a full circle edited to sweep nothing: refused on load, not left to
        # divide 0/0 in its bounding box at normalize
        d = bio.model_to_dict(seam_cylinder())
        arc = next(e["curve"] for e in d["edges"] if e["curve"]["kind"] == "arc")
        arc["theta1"] = arc["theta0"]
        path = tmp_path / "m.json"
        path.write_text(json.dumps(d))
        with pytest.raises(bio.FormatError, match="sweep must be non-zero"):
            bio.load_model(path)

    # each case: a model, an edit of one geometry record, and its refusal
    DEGENERATE = {
        "plane with a zero u_vec": (through_hole_box, "faces", "surface", "plane",
                                    lambda g: g.update(u_vec=[0.0, 0.0, 0.0]), "plane spans"),
        "plane with v_vec = u_vec": (through_hole_box, "faces", "surface", "plane",
                                     lambda g: g.update(v_vec=g["u_vec"]), "plane spans"),
        "cylinder with a zero axis": (seam_cylinder, "faces", "surface", "cylinder",
                                      lambda g: g.update(axis=[0.0, 0.0, 0.0]), "axis must be"),
        "cylinder with u1 = u0": (seam_cylinder, "faces", "surface", "cylinder",
                                  lambda g: g.update(u1=g["u0"]), "sweep must be non-zero"),
        "arc2 with phi1 = phi0": (seam_cylinder, "halfedges", "pcurve", "arc2",
                                  lambda g: g.update(phi1=g["phi0"]), "sweep must be non-zero"),
    }

    @pytest.mark.parametrize("case", sorted(DEGENERATE))
    def test_degenerate_geometry_is_a_format_error(self, tmp_path, capsys, case):
        maker, table, field, kind, edit, phrase = self.DEGENERATE[case]
        d = bio.model_to_dict(maker())
        edit(next(r[field] for r in d[table] if r[field]["kind"] == kind))
        path = tmp_path / "m.json"
        path.write_text(json.dumps(d))
        capsys.readouterr()
        assert main(["validate", str(path)]) == 2
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err["error"] == "format" and phrase in err["message"]

    def test_wrong_format_tag(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(bio.FormatError, match="not a model file"):
            bio.load_model(path)

    @pytest.mark.parametrize("stored", ["missing", "empty", "merged"])
    def test_stored_shells_are_derived(self, tmp_path, stored):
        # a file's shell list is derived from its faces, never trusted
        src = merge_models([box(), seam_cylinder(at=(2.0, 0.5, 0.0))])
        doc = bio.model_to_dict(src)
        truth = doc["shells"]
        assert truth == [list(s) for s in compute_shells(src)] and len(truth) == 2
        del doc["shells"]
        if stored != "missing":     # "merged": both bodies' faces in one shell
            doc["shells"] = {"empty": [], "merged": [sum(truth, [])]}[stored]
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        loaded, _ = bio.load_model(path)
        rep = validate(loaded)
        assert rep.watertight and len(rep.shells) == 2
        bio.save_model(loaded, tmp_path / "back.json")
        assert json.loads((tmp_path / "back.json").read_text())["shells"] == truth


@pytest.fixture(scope="module")
def box_codebook(tmp_path_factory):
    path = tmp_path_factory.mktemp("cb") / "cb.json"
    bio.save_codebook(lossless_codebook(normalize(box())[0]), path)
    return str(path)


def _first_pcurve(kind):
    return lambda d: next(h["pcurve"] for h in d["halfedges"] if h["pcurve"]["kind"] == kind)


class TestCorruptedModelFiles:
    # case -> (the path in box()'s model dict, the value put there, exit code,
    # a phrase of the format error or of the defect report)
    CASES = {
        "vertex is NaN": (("vertices", 0, 1), lambda d: float("nan"), 2,
                          "vertex 0: [0.0, nan, 0.0] is not an [x, y, z] row of finite numbers"),
        "vertex rows of two numbers": (("vertices",),
                                       lambda d: np.reshape(d["vertices"], (12, 2)).tolist(), 2,
                                       "vertex 0: [0.0, 0.0] is not an [x, y, z] row of finite "
                                       "numbers"),
        "twin is -1": (("halfedges", 0, "twin"), lambda d: -1, 1, "halfedge 0: dangling twin -1"),
        "loop kind is sideways": (("loops", 0, "kind"), lambda d: "sideways",
                                  1, "face 0: outer loop 0 marked sideways"),
        "edge curve is a plane": (("edges", 0, "curve"), lambda d: d["faces"][0]["surface"],
                                  2, "edge 0: curve kind 'plane'"),
        "edge curve is a seg2": (("edges", 0, "curve"), _first_pcurve("seg2"),
                                 2, "edge 0: curve kind 'seg2'"),
        "pcurve is a line": (("halfedges", 0, "pcurve"), lambda d: d["edges"][0]["curve"],
                             2, "halfedge 0: pcurve kind 'line'"),
        "surface is a seg2": (("faces", 0, "surface"), _first_pcurve("seg2"),
                              2, "face 0: surface kind 'seg2'"),
        "surface is a line": (("faces", 0, "surface"), lambda d: d["edges"][0]["curve"],
                              2, "face 0: surface kind 'line'"),
        "origin is a string": (("halfedges", 0, "origin"), lambda d: "a",
                               2, "halfedge 0: id 'a' is not an integer"),
        "origin is a float": (("halfedges", 0, "origin"), lambda d: 1.5,
                              2, "halfedge 0: id 1.5 is not an integer"),
        "origin is a bool": (("halfedges", 0, "origin"), lambda d: True,
                             2, "halfedge 0: id True is not an integer"),
        "outer loop is null": (("faces", 0, "outer"), lambda d: None,
                               2, "face 0: id None is not an integer"),
        "inner loop is a string": (("faces", 0, "inners"), lambda d: ["1"],
                                   2, "face 0: id '1' is not an integer"),
        "loop face is a float": (("loops", 0, "face"), lambda d: 0.0,
                                 2, "loop 0: id 0.0 is not an integer"),
        "forward is a number": (("halfedges", 0, "forward"), lambda d: 1,
                                2, "halfedge 0: forward 1 is not true or false"),
        "edge halfedge dangles": (("edges", 0, "halfedges"),
                                  lambda d: [999, d["edges"][0]["halfedges"][1]],
                                  1, "edge 0: dangling halfedge 999"),
        "edge vertex dangles": (("edges", 0, "v0"), lambda d: 999,
                                1, "edge 0: dangling vertex 999"),
        "edge ends on one vertex": (("edges", 0, "v0"), lambda d: d["edges"][0]["v1"],
                                    1, "edge 0: halfedge 0 starts at 4, not at the edge's v0"),
    }

    @staticmethod
    def run_every_command(tmp_path, capsys, codebook, d, code, phrase):
        """Each model-reading command on model dict ``d`` ends in ``code``, with
        ``phrase`` among validate's defects or in the error message."""
        path, report = str(tmp_path / "m.json"), tmp_path / "report.json"
        with open(path, "w") as f:
            json.dump(d, f)
        for argv in (["validate", path, "--report", str(report)],
                     ["tokenize", path, "--codebook", codebook,
                      "--out", str(tmp_path / "t.tokens")],
                     ["roundtrip", path],
                     ["train-codebook", path, "--out", str(tmp_path / "cb.json")],
                     ["export-obj", path, "--out", str(tmp_path / "m.obj")],
                     ["export-vhp-debug", path, "--out", str(tmp_path / "dbg.json")]):
            capsys.readouterr()
            assert main(argv) == code, argv
            err = json.loads(capsys.readouterr().err.splitlines()[-1])
            assert err["error"] == ("format" if code == 2 else "validation")
            if argv[0] == "validate" and code == 1:
                assert phrase in json.loads(report.read_text())[path]["defects"]
            else:
                assert phrase in err["message"], argv

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_every_command_ends_in_a_typed_error(self, tmp_path, capsys, box_codebook, case):
        # a format error (exit 2) or a defect report (exit 1), never an
        # exception out of main
        (*where, key), value, code, phrase = self.CASES[case]
        d = bio.model_to_dict(box())
        functools.reduce(operator.getitem, where, d)[key] = value(d)
        self.run_every_command(tmp_path, capsys, box_codebook, d, code, phrase)
        if code == 1:
            assert validate(bio.load_model(tmp_path / "m.json")[0]).defects == [phrase]

    def test_file_without_faces_or_loops_is_refused(self, tmp_path, capsys, box_codebook):
        d = bio.model_to_dict(box())
        d["faces"], d["loops"] = [], []
        self.run_every_command(tmp_path, capsys, box_codebook, d, 1,
                               "halfedge 0: dangling loop 0")


def _json_paths(node, path=()):
    """(path, value) of every entry below ``node``, depth first."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield path + (key,), value
        yield from _json_paths(value, path + (key,))


# edit -> the entries it may touch
EDIT_TARGETS = {
    "drop": lambda path, value: True,
    "duplicate": lambda path, value: type(path[-1]) is int,      # a list entry
    "retype": lambda path, value: True,
    "out of range": lambda path, value: type(value) is int,
    "NaN": lambda path, value: type(value) is float,
}


def _edit(doc, data):
    """One random field edit of a JSON model document, in place."""
    kinds = [k for k, ok in EDIT_TARGETS.items() if any(ok(*e) for e in _json_paths(doc))]
    kind = data.draw(st.sampled_from(kinds))
    path = data.draw(st.sampled_from([p for p, v in _json_paths(doc) if EDIT_TARGETS[kind](p, v)]))
    parent, key = functools.reduce(operator.getitem, path[:-1], doc), path[-1]
    if kind == "drop":
        del parent[key]
    elif kind == "duplicate":
        parent.insert(key, json.loads(json.dumps(parent[key])))
    elif kind == "retype":
        parent[key] = data.draw(st.sampled_from(["x", 1.5, True, None, [], {}]))
    elif kind == "out of range":
        parent[key] = data.draw(st.sampled_from([-1, 999]))
    else:
        parent[key] = float("nan")


PRIMITIVE_DOCS = {f.__name__: bio.model_to_dict(f()) for f in (box, through_hole_box,
                                                                 seam_cylinder)}


@pytest.fixture(scope="module")
def edit_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("edited")
    bio.save_model(box(), path / "ref.json")
    return path


class TestEditedModelFiles:
    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_every_command_exits_0_1_or_2(self, edit_dir, box_codebook, data):
        # one or two random field edits of a primitive's model file; a model
        # that validate refuses is refused by every other command, with the
        # same exit code
        doc = json.loads(json.dumps(PRIMITIVE_DOCS[data.draw(st.sampled_from(
            sorted(PRIMITIVE_DOCS)))]))
        for _ in range(data.draw(st.integers(1, 2))):
            _edit(doc, data)
        path, out = str(edit_dir / "m.json"), str(edit_dir / "out")
        with open(path, "w") as f:
            json.dump(doc, f)
        codes = {argv[0]: main(argv) for argv in (
            ["validate", path],
            ["tokenize", path, "--codebook", box_codebook, "--out", out],
            ["roundtrip", path, "--codebook", box_codebook],
            ["export-obj", path, "--out", out, "--resolution", "4"],
            ["export-vhp-debug", path, "--out", out],
            ["eval", "--gen", path, "--ref", str(edit_dir / "ref.json"), "--report", out,
             "--points", "64"])}
        assert set(codes.values()) <= {0, 1, 2}, codes
        if codes["validate"] != 0:
            assert set(codes.values()) == {codes["validate"]}, codes


class TestTokenFiles:
    def test_roundtrip_with_transforms(self, tmp_path):
        cb = lossless_codebook(normalize(box())[0])
        seqs = [encode_model(box(size=(1, 1, s)), cb) for s in (1.0, 1.3)]
        path = tmp_path / "t.tokens"
        bio.save_tokens(seqs, path)
        header, loaded = bio.load_tokens(path)
        assert header["codebook_id"] == cb.content_id()
        for a, b in zip(seqs, loaded):
            assert a.tokens == b.tokens
            assert b.header.transform is not None
            assert np.allclose(b.header.transform.offset, a.header.transform.offset)
            assert b.header.transform.scale == a.header.transform.scale

    def test_non_integer_token_reports_line(self, tmp_path):
        path = tmp_path / "t.tokens"
        path.write_text(json.dumps({"format": "brepcodec-tokens/1"})
                        + "\n1 2 x 4\n")
        with pytest.raises(bio.FormatError, match=":2"):
            bio.load_tokens(path)


class TestCodebookFiles:
    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        cb = train_codebook(rng.random((64, 12)), depth=3, size=8, seed=1)
        path = tmp_path / "cb.json"
        bio.save_codebook(cb, path)
        loaded = bio.load_codebook(path)
        assert loaded.content_id() == cb.content_id()
        assert np.array_equal(loaded.levels, cb.levels)
        assert np.array_equal(loaded.mean, cb.mean)

    def test_tamper_detected(self, tmp_path):
        rng = np.random.default_rng(0)
        cb = train_codebook(rng.random((64, 12)), depth=2, size=8, seed=1)
        path = tmp_path / "cb.json"
        bio.save_codebook(cb, path)
        doc = json.loads(path.read_text())
        doc["levels"][0][0][0] += 1.0
        path.write_text(json.dumps(doc))
        with pytest.raises(bio.FormatError, match="hash mismatch"):
            bio.load_codebook(path)


class TestNgramFiles:
    def test_roundtrip_sampling_identical(self, tmp_path):
        m, _ = normalize(box())
        cb = lossless_codebook(m)
        layout = VocabLayout.for_codebook(cb)
        seqs = [tokenize(m, cb)] * 3
        lm = fit_ngram(seqs, order=4, vocab_size=layout.vocab_size)
        path = tmp_path / "lm.json"
        bio.save_ngram(lm, path, layout_hash=layout.layout_hash())
        loaded, lh = bio.load_ngram(path)
        assert lh == layout.layout_hash()
        a = sample_sequence(lm, layout, SamplerConfig(seed=4))
        b = sample_sequence(loaded, layout, SamplerConfig(seed=4))
        assert a.tokens == b.tokens
        assert "vocab_size" not in json.loads(path.read_text())

    def test_vocab_size_key_is_ignored(self, tmp_path):
        m, _ = normalize(box())
        cb = lossless_codebook(m)
        layout = VocabLayout.for_codebook(cb)
        lm = fit_ngram([tokenize(m, cb)] * 3, order=4)
        path = tmp_path / "lm.json"
        bio.save_ngram(lm, path)
        doc = json.loads(path.read_text())
        doc["vocab_size"] = -5       # files from before the key was dropped
        path.write_text(json.dumps(doc))
        loaded, _ = bio.load_ngram(path)
        for seed in range(3):
            assert sample_sequence(loaded, layout, SamplerConfig(seed=seed)).tokens \
                == sample_sequence(lm, layout, SamplerConfig(seed=seed)).tokens

    def test_loaded_copy_samples_the_same_streams(self, tmp_path):
        # five primitives under one small codebook: contexts with many hits,
        # and every grammar state the sampler draws in
        normed = [normalize(make())[0] for make in (box, ngon_prism, seam_cylinder,
                                                    through_hole_box, l_bracket)]
        descs = np.concatenate([model_descriptors(m) for m in normed])
        cb = train_codebook(descs, 4, 16, seed=0, dim_weights=descriptor_dim_weights())
        layout = VocabLayout.for_codebook(cb)
        lm = fit_ngram([tokenize(m, cb) for m in normed], order=2,
                       vocab_size=layout.vocab_size)
        path = tmp_path / "lm.json"
        bio.save_ngram(lm, path, layout_hash=layout.layout_hash())
        loaded, _ = bio.load_ngram(path)
        for temperature in (0.7, 1.3):
            for seed in range(10):
                cfg = SamplerConfig(seed=seed, temperature=temperature)
                assert sample_sequence(loaded, layout, cfg).tokens \
                    == sample_sequence(lm, layout, cfg).tokens


class TestExports:
    def test_obj_export(self, tmp_path):
        m, _ = normalize(seam_cylinder())
        path = tmp_path / "m.obj"
        bio.export_obj(m, path, resolution=8)
        text = path.read_text()
        assert text.count("\nv ") > 50
        assert text.count("\nf ") > 10

    def test_vhp_debug_export(self, tmp_path):
        m, _ = normalize(box())
        path = tmp_path / "dbg.json"
        bio.export_vhp_debug(m, path)
        doc = json.loads(path.read_text())
        assert len(doc["faces"]) == 6
        assert len(doc["records"]) == 24
        labels = np.array(doc["faces"][0]["labels"])
        assert (labels >= 0).sum() > 0


    def test_vhp_debug_builds_one_chart(self, tmp_path, monkeypatch):
        # a two-component hole box as the benchmark draws them; the digest
        # was recorded when the walk began to exit straight-chord rays in
        # closed form (the same bytes whether the export builds one chart or two)
        (_, m), = synth_corpus(CorpusSpec(counts={"hole_box": 1}, components=(2, 2), seed=7))
        built = []
        init = FaceCharts.__init__

        def counting_init(self, model):
            built.append(model)
            init(self, model)

        monkeypatch.setattr(FaceCharts, "__init__", counting_init)
        bio.export_vhp_debug(normalize(m)[0], tmp_path / "dbg.json")
        assert len(built) == 1
        assert hashlib.sha256((tmp_path / "dbg.json").read_bytes()).hexdigest() == \
            "9d72a09e9da3433f315d15c6f16c33e77dacbfaab57c239fd6a62b9c32b68612"

    def test_exports_are_pinned(self, tmp_path):
        # m.obj recorded before export_obj and export_vhp_debug shared one
        # FaceCharts; dbg.json when the walk began to exit in closed form
        bio.export_obj(normalize(seam_cylinder())[0], tmp_path / "m.obj", resolution=8)
        bio.export_vhp_debug(normalize(box())[0], tmp_path / "dbg.json")
        digest = {p: hashlib.sha256((tmp_path / p).read_bytes()).hexdigest()
                  for p in ("m.obj", "dbg.json")}
        assert digest == {
            "m.obj": "a211efd157fef60ba44d1987104f5ea0843e115e54b2dc373e406ffccc602575",
            "dbg.json": "ec3aff6757e1dec525496464400e4bf27437b60f8dd30b4b5070c7ae7c2bbcb8",
        }


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    spec = {"counts": {"box": 2, "prism": 1, "cylinder": 1, "hole_box": 1},
            "components": [1, 2], "seed": 5}
    (root / "spec.json").write_text(json.dumps(spec))
    assert main(["synth", "--spec", str(root / "spec.json"),
                 "--out", str(root / "corpus")]) == 0
    assert main(["train-codebook", str(root / "corpus"), "--levels", "4",
                 "--size", "48", "--seed", "0",
                 "--out", str(root / "cb.json")]) == 0
    assert main(["tokenize", str(root / "corpus"), "--codebook",
                 str(root / "cb.json"), "--out", str(root / "c.tokens")]) == 0
    return root


class TestCli:
    def test_validate_ok(self, workspace):
        assert main(["validate", str(workspace / "corpus")]) == 0

    def test_validate_failure_exit_1(self, workspace, tmp_path):
        m, _ = bio.load_model(sorted((workspace / "corpus").glob("*.json"))[0])
        import dataclasses

        m.halfedges[0] = dataclasses.replace(m.halfedges[0], twin=0)
        bad = tmp_path / "bad.json"
        bio.save_model(m, bad)
        assert main(["validate", str(bad)]) == 1

    def test_roundtrip_exit_0(self, workspace, tmp_path):
        assert main(["roundtrip", str(workspace / "corpus"),
                     "--codebook", str(workspace / "cb.json"),
                     "--report", str(tmp_path / "rt.json")]) == 0
        reports = json.loads((tmp_path / "rt.json").read_text())
        assert len(reports) == 5
        for res in reports.values():
            assert res["ok"]
            assert set(res["report"]["stage_ms"]) == STAGES
            rep = res["report"]
            assert rep["planar_faces"] + rep["bicubic_faces"] == rep["faces_built"]
            assert rep["bicubic_rejected"] <= rep["planar_faces"]
        # the corpus holds a cylinder, whose wall is the one bicubic face
        assert sum(res["report"]["bicubic_faces"] for res in reports.values()) >= 1

    def test_detokenize_and_corruption_exit_2(self, workspace, tmp_path):
        out = tmp_path / "rebuilt"
        assert main(["detokenize", str(workspace / "c.tokens"),
                     "--codebook", str(workspace / "cb.json"),
                     "--out", str(out),
                     "--report", str(tmp_path / "rep.json")]) == 0
        assert sorted(out.glob("model_*.json"))
        reports = json.loads((tmp_path / "rep.json").read_text())
        assert all(set(r["stage_ms"]) == STAGES for r in reports.values())
        # corrupt one token mid-group: a coordinate where a quantizer
        # code is required
        cb = bio.load_codebook(workspace / "cb.json")
        layout = VocabLayout.for_codebook(cb)
        lines = (workspace / "c.tokens").read_text().splitlines()
        parts = lines[1].split()
        ptr = next(i for i, t in enumerate(parts)
                   if layout.pointer_base <= int(t) < layout.rq_base)
        parts[ptr + 2] = "0"
        bad = tmp_path / "bad.tokens"
        bad.write_text("\n".join([lines[0], " ".join(parts)]) + "\n")
        code = main(["detokenize", str(bad),
                     "--codebook", str(workspace / "cb.json"),
                     "--out", str(tmp_path / "junk")])
        assert code == 2

    NGRAM_FIELDS = {"n-gram order is a string": {"order": "2"},
                    "n-gram order is negative": {"order": -3},
                    "n-gram smoothing is a string": {"smoothing": "x"},
                    "n-gram smoothing is negative": {"smoothing": -1.0}}

    @pytest.mark.parametrize("command, corruption", [
        ("validate", "transform without scale"),
        ("roundtrip", "transform without scale"),
        ("validate", "model file is a list"),
        ("detokenize", "transform without scale"),
        ("detokenize", "transforms is 5"),
        ("detokenize", "header is a list"),
        ("detokenize", "codebook file is a list"),
        ("tokenize", "codebook levels are flat"),
        ("detokenize", "codebook levels are flat"),
        ("tokenize", "codebook levels are empty"),
        ("tokenize", "codebook levels hold NaN"),
        ("tokenize", "codebook mean has the wrong length"),
        ("tokenize", "codebook scale is zero"),
        ("generate", "n-gram without order"),
        ("generate", "n-gram file is a list"),
        ("generate", "n-gram order is a string"),
        ("generate", "n-gram order is negative"),
        ("generate", "n-gram smoothing is a string"),
        ("generate", "n-gram smoothing is negative"),
    ])
    def test_corrupted_file_is_a_format_error(self, workspace, tmp_path, capsys,
                                              command, corruption):
        bad = tmp_path / "bad"
        cb = str(workspace / "cb.json")
        if command in ("validate", "roundtrip"):
            doc = json.loads(sorted((workspace / "corpus").glob("*.json"))[0].read_text())
            doc["transform"] = {"offset": [0.0, 0.0, 0.0]}
            bad.write_text(json.dumps([doc] if "list" in corruption else doc))
            args = [command, str(bad)] + (["--codebook", cb] if command == "roundtrip" else [])
        elif corruption.startswith("codebook"):
            doc = json.loads((workspace / "cb.json").read_text())
            if "flat" in corruption:
                doc["levels"] = np.ravel(doc["levels"]).tolist()
            elif "empty" in corruption:
                doc["levels"] = []
            elif "NaN" in corruption:
                doc["levels"][0][0][0] = float("nan")
            elif "mean" in corruption:
                doc["mean"] = doc["mean"][:-1]
            elif "scale" in corruption:
                doc["scale"] = [0.0] * len(doc["scale"])
            # a matching id, so only the content check can refuse the file
            doc["id"] = Codebook(*(np.array(doc[k], dtype=float)
                                   for k in ("levels", "mean", "scale"))).content_id()
            bad.write_text("[]" if "list" in corruption else json.dumps(doc))
            source = workspace / ("corpus" if command == "tokenize" else "c.tokens")
            args = [command, str(source), "--codebook", str(bad),
                    "--out", str(tmp_path / "out")]
        elif command == "detokenize":
            lines = (workspace / "c.tokens").read_text().splitlines()
            header = json.loads(lines[0])
            if "list" in corruption:
                header = [1, 2]
            elif "5" in corruption:
                header["transforms"] = 5
            else:
                del header["transforms"][0]["scale"]
            bad.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
            args = [command, str(bad), "--codebook", cb, "--out", str(tmp_path / "out")]
        else:
            doc = {"format": bio.LM_FORMAT, "order": 2, "smoothing": 0.1, "counts": {}}
            doc.update(self.NGRAM_FIELDS.get(corruption, {}))
            if "without order" in corruption:
                del doc["order"]
            bad.write_text(json.dumps([doc] if "list" in corruption else doc))
            args = [command, "--lm", str(bad), "--codebook", cb, "-n", "1",
                    "--out", str(tmp_path / "out")]
        capsys.readouterr()
        assert main(args) == 2
        assert json.loads(capsys.readouterr().err.splitlines()[-1])["error"] == "format"

    # each case: the command line, and a phrase its error message must hold
    @pytest.mark.parametrize("case", ["codebook of the wrong width", "tokens of another codebook",
                                      "n-gram of another layout", "fit-lm without sequences"])
    def test_mismatched_input_is_a_format_error(self, workspace, tmp_path, capsys, case):
        tokens, out = str(workspace / "c.tokens"), ["--out", str(tmp_path / "out")]
        if case == "codebook of the wrong width":
            doc = json.loads((workspace / "cb.json").read_text())
            bio.save_codebook(Codebook(np.array(doc["levels"])[..., :10], np.array(doc["mean"][:10]),
                                       np.array(doc["scale"][:10])), tmp_path / "narrow.json")
            header, seqs = bio.load_tokens(tokens)     # rewritten naming no codebook
            bio.save_tokens([s.tokens for s in seqs], tmp_path / "anon.tokens",
                            layout_hash=header["layout_hash"])
            args, phrase = ["detokenize", str(tmp_path / "anon.tokens"),
                            "--codebook", str(tmp_path / "narrow.json")], "codebook dimension 10"
        elif case == "tokens of another codebook":
            assert main(["train-codebook", str(workspace / "corpus"), "--levels", "4", "--size",
                         "48", "--seed", "5", "--out", str(tmp_path / "cb5.json")]) == 0
            args, phrase = ["detokenize", tokens, "--codebook", str(tmp_path / "cb5.json")], \
                "written with codebook"
        elif case == "n-gram of another layout":
            cb38 = str(tmp_path / "cb38.json")
            assert main(["train-codebook", str(workspace / "corpus"), "--levels", "3", "--size",
                         "8", "--out", cb38]) == 0
            assert main(["tokenize", str(workspace / "corpus"), "--codebook", cb38,
                         "--out", str(tmp_path / "c38.tokens")]) == 0
            assert main(["fit-lm", tokens, "--out", str(tmp_path / "lm.json")]) == 0
            args, phrase = ["autocomplete", "--lm", str(tmp_path / "lm.json"), "--codebook", cb38,
                            "--prefix", str(tmp_path / "c38.tokens")], "vocabulary"
        else:
            (tmp_path / "empty.tokens").write_text(json.dumps({"format": bio.TOKENS_FORMAT}) + "\n")
            args, phrase = ["fit-lm", str(tmp_path / "empty.tokens")], "no sequences"
        capsys.readouterr()
        assert main(args + out) == 2
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err["error"] == "format" and phrase in err["message"]

    def test_synth_determinism_byte_identical(self, workspace, tmp_path):
        out2 = tmp_path / "corpus2"
        assert main(["synth", "--spec", str(workspace / "spec.json"),
                     "--out", str(out2)]) == 0
        for f in sorted(os.listdir(workspace / "corpus")):
            a = (workspace / "corpus" / f).read_bytes()
            b = (out2 / f).read_bytes()
            assert a == b, f

    def test_generate_determinism(self, workspace, tmp_path):
        assert main(["fit-lm", str(workspace / "c.tokens"), "--order", "4",
                     "--out", str(tmp_path / "lm.json")]) == 0
        for d in ("g1", "g2"):
            assert main(["generate", "--lm", str(tmp_path / "lm.json"),
                         "--codebook", str(workspace / "cb.json"),
                         "-n", "4", "--seed", "11", "--temperature", "0.6",
                         "--out", str(tmp_path / d)]) == 0
        a = (tmp_path / "g1" / "sequences.tokens").read_bytes()
        b = (tmp_path / "g2" / "sequences.tokens").read_bytes()
        assert a == b

    @pytest.mark.parametrize("temperature", ["0", "nan"])
    def test_generate_refuses_a_bad_temperature(self, workspace, tmp_path, capsys, temperature):
        assert main(["fit-lm", str(workspace / "c.tokens"), "--order", "2",
                     "--out", str(tmp_path / "lm.json")]) == 0
        capsys.readouterr()
        assert main(["generate", "--lm", str(tmp_path / "lm.json"),
                     "--codebook", str(workspace / "cb.json"), "-n", "1",
                     "--temperature", temperature, "--out", str(tmp_path / "g")]) == 1
        assert "temperature" in json.loads(capsys.readouterr().err.splitlines()[-1])["message"]
        assert not (tmp_path / "g").exists()

    @pytest.mark.parametrize("args", [["-n", "0"], ["-n", "-2"],
                                      ["-n", "0", "--temperature", "nan"]],
                             ids=["zero", "negative", "zero-nan"])
    def test_generate_refuses_a_count_below_one(self, workspace, tmp_path, capsys, args):
        assert main(["fit-lm", str(workspace / "c.tokens"), "--order", "2",
                     "--out", str(tmp_path / "lm.json")]) == 0
        capsys.readouterr()
        assert main(["generate", "--lm", str(tmp_path / "lm.json"),
                     "--codebook", str(workspace / "cb.json"), *args,
                     "--out", str(tmp_path / "g")]) == 1
        assert "count" in json.loads(capsys.readouterr().err.splitlines()[-1])["message"]
        assert not (tmp_path / "g").exists()

    @pytest.mark.parametrize("temperature", ["0", "nan"])
    def test_autocomplete_refuses_a_bad_temperature(self, workspace, tmp_path, capsys,
                                                    temperature):
        layout = VocabLayout.for_codebook(bio.load_codebook(workspace / "cb.json"))
        _, seqs = bio.load_tokens(workspace / "c.tokens")
        bio.save_tokens([seqs[0].tokens[:-1] + [layout.sep]], tmp_path / "prefix.tokens",
                        layout_hash=layout.layout_hash())
        assert main(["fit-lm", str(workspace / "c.tokens"), "--order", "2",
                     "--out", str(tmp_path / "lm.json")]) == 0
        capsys.readouterr()
        assert main(["autocomplete", "--lm", str(tmp_path / "lm.json"),
                     "--codebook", str(workspace / "cb.json"),
                     "--prefix", str(tmp_path / "prefix.tokens"),
                     "--temperature", temperature, "--out", str(tmp_path / "g")]) == 1
        assert "temperature" in json.loads(capsys.readouterr().err.splitlines()[-1])["message"]
        assert not (tmp_path / "g").exists()

    def test_fit_lm_refuses_what_generate_could_not_load(self, workspace, tmp_path):
        out = tmp_path / "lm.json"
        assert main(["fit-lm", str(workspace / "c.tokens"), "--smoothing", "-1",
                     "--out", str(out)]) == 1
        assert not out.exists()

    def test_autocomplete_cli(self, workspace, tmp_path):
        cb = bio.load_codebook(workspace / "cb.json")
        layout = VocabLayout.for_codebook(cb)
        _, seqs = bio.load_tokens(workspace / "c.tokens")
        prefix = seqs[0].tokens[:-1] + [layout.sep]
        bio.save_tokens([prefix], tmp_path / "prefix.tokens",
                        layout_hash=layout.layout_hash())
        assert main(["fit-lm", str(workspace / "c.tokens"),
                     "--out", str(tmp_path / "lm.json")]) == 0
        assert main(["autocomplete", "--lm", str(tmp_path / "lm.json"),
                     "--codebook", str(workspace / "cb.json"),
                     "--prefix", str(tmp_path / "prefix.tokens"),
                     "--out", str(tmp_path / "done")]) == 0
        _, outs = bio.load_tokens(tmp_path / "done" / "completed.tokens")
        assert outs[0].tokens[: len(prefix)] == prefix

    def test_eval_cli(self, workspace, tmp_path):
        rep_path = tmp_path / "metrics.json"
        csv_path = tmp_path / "table.csv"
        assert main(["eval", "--gen", str(workspace / "corpus"),
                     "--ref", str(workspace / "corpus"),
                     "--points", "300", "--seed", "1",
                     "--report", str(rep_path),
                     "--csv", str(csv_path),
                     "--codebook", str(workspace / "cb.json"),
                     "--train-tokens", str(workspace / "c.tokens")]) == 0
        rep = json.loads(rep_path.read_text())
        assert rep["coverage"] == 1.0
        assert rep["valid"] == 1.0
        assert rep["unique"] == 1.0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "model,vertices,edges,faces,nearest_ref_chamfer"
        assert len(lines) == 1 + rep["n_generated"]

    def test_eval_samples_only_valid_models(self, workspace, tmp_path, capsys):
        # a --gen model that validate refuses counts against Valid and is
        # left out of the clouds; with none valid, or a refused --ref, exit 1
        corpus = sorted((workspace / "corpus").glob("*.json"))
        good, mixed, bad = (tmp_path / n for n in ("good", "mixed", "bad"))
        doc = json.loads(corpus[0].read_text())
        doc["loops"][0]["kind"] = "sideways"
        for d in (good, mixed, bad):
            d.mkdir()
        for p in corpus[:2]:
            (good / p.name).write_bytes(p.read_bytes())
            (mixed / p.name).write_bytes(p.read_bytes())
        (mixed / "zz_bad.json").write_text(json.dumps(doc))
        (bad / "zz_bad.json").write_text(json.dumps(doc))

        def run(gen, ref=workspace / "corpus"):
            return main(["eval", "--gen", str(gen), "--ref", str(ref), "--points", "300",
                         "--report", str(tmp_path / f"{gen.name}.json"),
                         "--csv", str(tmp_path / f"{gen.name}.csv")])

        assert run(good) == 0 and run(mixed) == 0
        want, rep = (json.loads((tmp_path / f"{n}.json").read_text()) for n in ("good", "mixed"))
        assert (want["valid"], rep["valid"]) == (1.0, 2 / 3)
        assert [rep[k] for k in ("coverage", "mmd", "jsd")] \
            == [want[k] for k in ("coverage", "mmd", "jsd")]
        assert (tmp_path / "mixed.csv").read_text() == (tmp_path / "good.csv").read_text()
        assert any(n.startswith("1 --gen models refused by validate") for n in rep["notes"])
        capsys.readouterr()
        assert run(bad) == 1
        assert "none of the 1 --gen models is valid" in capsys.readouterr().err
        assert run(good, ref=bad) == 1
        assert "outer loop 0 marked sideways" in capsys.readouterr().err

    def test_synth_seed_override(self, workspace, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["synth", "--spec", str(workspace / "spec.json"),
                     "--seed", "123", "--out", str(out_a)]) == 0
        assert main(["synth", "--spec", str(workspace / "spec.json"),
                     "--seed", "123", "--out", str(out_b)]) == 0
        for f in sorted(os.listdir(out_a)):
            assert (out_a / f).read_bytes() == (out_b / f).read_bytes()
        # a different seed changes the corpus
        out_c = tmp_path / "c"
        assert main(["synth", "--spec", str(workspace / "spec.json"),
                     "--seed", "124", "--out", str(out_c)]) == 0
        assert any((out_a / f).read_bytes() != (out_c / f).read_bytes()
                   for f in sorted(os.listdir(out_a)))

    def test_capacity_exit_3(self, tmp_path):
        spec = {"counts": {"box": 1}, "components": [5, 5],
                "placement_extent": 0.1, "max_retries": 2, "seed": 0}
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        assert main(["synth", "--spec", str(tmp_path / "spec.json"),
                     "--out", str(tmp_path / "x")]) == 3

    @pytest.mark.parametrize("value", ["0", "-1", "-5"])
    @pytest.mark.parametrize("command, option", [("export-obj", "--resolution"),
                                                 ("eval", "--points"), ("eval", "--voxels")])
    def test_count_options_refuse_values_below_one(self, workspace, tmp_path, capsys,
                                                   command, option, value):
        model = sorted((workspace / "corpus").glob("*.json"))[0]
        out = tmp_path / "out"
        args = ([command, str(model), "--out", str(out)] if command == "export-obj" else
                [command, "--gen", str(workspace / "corpus"), "--ref", str(workspace / "corpus"),
                 "--report", str(out)])
        capsys.readouterr()
        assert main(args + [option, value]) == 1
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err["error"] == "validation"
        assert err["message"] == f"{option} must be at least 1, not {value}"
        assert not out.exists()

    def test_export_commands(self, workspace, tmp_path):
        model = sorted((workspace / "corpus").glob("*.json"))[0]
        assert main(["export-obj", str(model),
                     "--out", str(tmp_path / "m.obj")]) == 0
        assert main(["export-vhp-debug", str(model),
                     "--out", str(tmp_path / "m.vhp.json")]) == 0
        assert (tmp_path / "m.obj").exists()
        assert (tmp_path / "m.vhp.json").exists()
