"""File formats: models, token files, codebooks, reports, debug exports.

All formats are plain text (JSON or line-oriented), round-trip exactly
(floats serialize with full precision via repr), and are written
atomically (temp file then rename).  Loaders raise FormatError with
location context instead of crashing on malformed input.
"""
from __future__ import annotations

import dataclasses
import json
import math
import os
import tempfile

import numpy as np

from . import geometry as G
from .codec import SequenceHeader, TokenSequence
from .model import BrepModel, Edge, Face, HalfEdge, Loop, TransformRecord, compute_shells
from .rq import Codebook
from .sampler import (UV_GRID, FaceCharts, SamplingConfig, extract_vhp, unpack_descriptor,
                      voronoi_assign)

MODEL_FORMAT = "brepcodec-model/1"
TOKENS_FORMAT = "brepcodec-tokens/1"
CODEBOOK_FORMAT = "brepcodec-codebook/1"


class FormatError(ValueError):
    pass


def atomic_write_text(path, text: str):
    path = os.fspath(path)
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# Geometry <-> dict
# ---------------------------------------------------------------------------

def _geom_to_dict(g) -> dict:
    """{"kind": ..., then each dataclass field in order}; arrays as lists."""
    if G.KINDS.get(getattr(g, "kind", None)) is not type(g):
        raise FormatError(f"unsupported geometry type {type(g).__name__}")
    d = {"kind": g.kind}
    for f in dataclasses.fields(g):
        v = getattr(g, f.name)
        d[f.name] = v.tolist() if isinstance(v, np.ndarray) else v
    return d


# the kinds each geometry slot of a model file takes; a pcurve may also be null
SLOT_KINDS = {"curve": ("line", "arc", "polyline"), "surface": ("plane", "cylinder", "bicubic"),
              "pcurve": ("seg2", "arc2", "poly2")}


def _geom_from_dict(d: dict, slot: str):
    """The geometry of record ``d``, of a kind that ``slot`` takes."""
    try:
        cls = G.KINDS.get(d["kind"])
        if cls is None:
            raise FormatError(f"unknown geometry kind {d['kind']!r}")
        if cls.kind not in SLOT_KINDS[slot]:
            raise FormatError(f"{slot} kind {cls.kind!r} is not one of "
                              f"{', '.join(SLOT_KINDS[slot])}")
        return cls(*[d[f.name] for f in dataclasses.fields(cls)])
    except KeyError as exc:
        raise FormatError(f"geometry record missing field {exc}") from exc


# ---------------------------------------------------------------------------
# Model files
# ---------------------------------------------------------------------------

def transform_to_dict(t: TransformRecord | None):
    if t is None:
        return None
    return {"offset": list(t.offset), "scale": t.scale}


def transform_from_dict(d):
    if d is None:
        return None
    return TransformRecord(offset=tuple(d["offset"]), scale=d["scale"])


def model_to_dict(model: BrepModel, transform: TransformRecord | None = None) -> dict:
    return {
        "format": MODEL_FORMAT,
        "units": "normalized" if transform is not None else "model",
        "transform": transform_to_dict(transform),
        "vertices": model.vertices.tolist(),
        "edges": [{"curve": _geom_to_dict(e.curve), "v0": e.v0, "v1": e.v1,
                   "halfedges": list(e.halfedges)} for e in model.edges],
        "halfedges": [{"origin": h.origin, "twin": h.twin, "edge": h.edge,
                       "loop": h.loop, "forward": h.forward,
                       "pcurve": None if h.pcurve is None else _geom_to_dict(h.pcurve)}
                      for h in model.halfedges],
        "loops": [{"halfedges": list(l.halfedges), "kind": l.kind, "face": l.face}
                  for l in model.loops],
        "faces": [{"surface": _geom_to_dict(f.surface), "outer": f.outer,
                   "inners": list(f.inners)} for f in model.faces],
        "shells": [list(s) for s in compute_shells(model)],
    }


def _id(value) -> int:
    if type(value) is not int:               # a JSON integer; bools are refused
        raise FormatError(f"id {value!r} is not an integer")
    return value


def _ids(values) -> tuple:
    return tuple(map(_id, values))


def _vertex(row) -> list:
    if not (type(row) is list and len(row) == 3
            and all(type(x) in (int, float) and math.isfinite(x) for x in row)):
        raise FormatError(f"{row!r} is not an [x, y, z] row of finite numbers")
    return row


def _flag(value) -> bool:
    if type(value) is not bool:
        raise FormatError(f"forward {value!r} is not true or false")
    return value


def _table(d: dict, key: str, make) -> list:
    """``make(record)`` for each record of table ``key``; an error names the record."""
    out, name = [], "vertex" if key == "vertices" else key[:-1]
    for i, r in enumerate(d[key]):
        try:
            out.append(make(r))
        except KeyError as exc:
            raise FormatError(f"{name} {i}: missing field {exc}") from exc
        except (TypeError, ValueError, OverflowError) as exc:
            raise FormatError(f"{name} {i}: {exc}") from exc
    return out


def model_from_dict(d: dict) -> tuple:
    """A model and its transform; a stored ``shells`` list is ignored.

    Vertices must be [x, y, z] rows of finite numbers, ids integers,
    ``forward`` a bool, and each geometry of a kind its slot takes
    (`SLOT_KINDS`); FormatError names the refused record."""
    fmt = d.get("format") if isinstance(d, dict) else None
    if fmt != MODEL_FORMAT:
        raise FormatError(f"not a model file (format={fmt!r})")
    try:
        model = BrepModel(
            vertices=np.array(_table(d, "vertices", _vertex), dtype=float).reshape(-1, 3),
            edges=_table(d, "edges", lambda e: Edge(
                curve=_geom_from_dict(e["curve"], "curve"), v0=_id(e["v0"]),
                v1=_id(e["v1"]), halfedges=_ids(e["halfedges"]))),
            halfedges=_table(d, "halfedges", lambda h: HalfEdge(
                origin=_id(h["origin"]), twin=_id(h["twin"]), edge=_id(h["edge"]),
                loop=_id(h["loop"]), forward=_flag(h["forward"]),
                pcurve=None if h["pcurve"] is None else _geom_from_dict(h["pcurve"], "pcurve"))),
            loops=_table(d, "loops", lambda l: Loop(
                halfedges=_ids(l["halfedges"]), kind=l["kind"], face=_id(l["face"]))),
            faces=_table(d, "faces", lambda f: Face(
                surface=_geom_from_dict(f["surface"], "surface"), outer=_id(f["outer"]),
                inners=_ids(f["inners"]))),
        )
        transform = transform_from_dict(d.get("transform"))
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed model file: {exc}") from exc
    return model, transform


def save_model(model: BrepModel, path, transform: TransformRecord | None = None):
    atomic_write_text(path, json.dumps(model_to_dict(model, transform)) + "\n")


def load_model(path) -> tuple:
    try:
        with open(path) as f:
            d = json.load(f)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON at line {exc.lineno}, "
                          f"column {exc.colno}") from exc
    return model_from_dict(d)


# ---------------------------------------------------------------------------
# Token files
# ---------------------------------------------------------------------------

def save_tokens(sequences, path, layout_hash: str = "", codebook_id: str = ""):
    """Line-oriented token file with a JSON header line.

    Per-sequence normalization transforms are recorded in the header so
    each line stays a plain run of space-separated integers.
    """
    seqs = []
    transforms = []
    for s in sequences:
        if isinstance(s, TokenSequence):
            seqs.append(s.tokens)
            transforms.append(transform_to_dict(s.header.transform))
            layout_hash = layout_hash or s.header.layout_hash
            codebook_id = codebook_id or s.header.codebook_id
        else:
            seqs.append(list(s))
            transforms.append(None)
    header = {"format": TOKENS_FORMAT, "layout_hash": layout_hash,
              "codebook_id": codebook_id, "transforms": transforms}
    lines = [json.dumps(header)]
    lines.extend(" ".join(str(t) for t in s) for s in seqs)
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_tokens(path):
    """Returns (header dict, list of TokenSequence)."""
    with open(path) as f:
        lines = f.read().splitlines()
    if not lines:
        raise FormatError(f"{path}: empty token file")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}:1: invalid header JSON: {exc}") from exc
    if not isinstance(header, dict) or header.get("format") != TOKENS_FORMAT:
        raise FormatError(f"{path}: not a token file")
    transforms = header.get("transforms") or []
    if not isinstance(transforms, list):
        raise FormatError(f"{path}:1: header transforms must be a list")
    out = []
    for ln, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            toks = [int(t) for t in line.split()]
        except ValueError as exc:
            raise FormatError(f"{path}:{ln}: non-integer token: {exc}") from exc
        idx = len(out)
        try:
            tr = transform_from_dict(transforms[idx]) if idx < len(transforms) else None
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"{path}:1: malformed transform {idx}: {exc}") from exc
        out.append(TokenSequence(tokens=toks, header=SequenceHeader(
            layout_hash=header.get("layout_hash", ""),
            codebook_id=header.get("codebook_id", ""), transform=tr)))
    return header, out


# ---------------------------------------------------------------------------
# Codebook files
# ---------------------------------------------------------------------------

def save_codebook(cb: Codebook, path):
    doc = {"format": CODEBOOK_FORMAT, "depth": cb.depth,
           "level_size": cb.level_size, "dim": cb.dim, "id": cb.content_id(),
           "mean": cb.mean.tolist(), "scale": cb.scale.tolist(),
           "levels": cb.levels.tolist()}
    atomic_write_text(path, json.dumps(doc) + "\n")


def load_codebook(path) -> Codebook:
    try:
        with open(path) as f:
            d = json.load(f)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(d, dict) or d.get("format") != CODEBOOK_FORMAT:
        raise FormatError(f"{path}: not a codebook file")
    try:
        cb = Codebook(levels=np.array(d["levels"], dtype=float),
                      mean=np.array(d["mean"], dtype=float),
                      scale=np.array(d["scale"], dtype=float))
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: malformed codebook: {exc}") from exc
    if cb.levels.ndim != 3 or not cb.levels.size \
            or not cb.mean.shape == cb.scale.shape == (cb.dim,):
        raise FormatError(f"{path}: a codebook needs non-empty (depth, size, dim) levels "
                          f"and a mean and scale of length dim")
    if not all(np.isfinite(a).all() for a in (cb.levels, cb.mean, cb.scale)) \
            or not (cb.scale > 0).all():
        raise FormatError(f"{path}: codebook values must be finite, with scale > 0")
    if cb.content_id() != d.get("id"):
        raise FormatError(f"{path}: codebook content hash mismatch")
    return cb


# ---------------------------------------------------------------------------
# Sequence-model files
# ---------------------------------------------------------------------------

LM_FORMAT = "brepcodec-ngram/1"


def save_ngram(model, path, layout_hash: str = ""):
    from .lm import NGramModel  # noqa: F401  (documents the expected type)

    counts = {",".join(str(t) for t in ctx): dict(sorted(hits.items()))
              for ctx, hits in sorted(model.counts.items())}
    doc = {"format": LM_FORMAT, "order": model.order, "smoothing": model.smoothing,
           "layout_hash": layout_hash, "counts": counts}
    atomic_write_text(path, json.dumps(doc) + "\n")


def load_ngram(path):
    """The n-gram and its layout hash; a ``vocab_size`` key is ignored."""
    from .lm import NGramModel, check_ngram_parameters

    try:
        with open(path) as f:
            d = json.load(f)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(d, dict) or d.get("format") != LM_FORMAT:
        raise FormatError(f"{path}: not an n-gram model file")
    try:
        check_ngram_parameters(d.get("order"), d.get("smoothing"))
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    try:
        model = NGramModel(order=d["order"], smoothing=d["smoothing"])
        for key, hits in d["counts"].items():
            ctx = tuple(int(t) for t in key.split(",")) if key else ()
            model.counts[ctx] = {int(t): int(n) for t, n in hits.items()}
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise FormatError(f"{path}: malformed n-gram model file: {exc}") from exc
    return model, d.get("layout_hash", "")


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def _plain(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {k: _plain(v) for k, v in dataclasses.asdict(obj).items()}
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    return obj


def save_report(report, path):
    atomic_write_text(path, json.dumps(_plain(report), indent=2, sort_keys=True) + "\n")


def save_table(rows, path, columns):
    """Comma-separated table for histogram plotting."""
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(str(row[c]) for c in columns))
    atomic_write_text(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Viewing exports
# ---------------------------------------------------------------------------

def export_obj(model: BrepModel, path, resolution: int = 32):
    """Tessellate faces at a fixed UV resolution (viewing only, lossy)."""
    lines = ["# brepcodec OBJ export (tessellated; not exact geometry)"]
    base = 1
    charts = FaceCharts(model)
    for f, surf in enumerate(charts.surfaces):
        u0, u1, v0, v1 = charts.domains[f]
        us = np.linspace(u0, u1, resolution + 1)
        vs = np.linspace(v0, v1, resolution + 1)
        uu, vv = np.meshgrid(us, vs, indexing="ij")
        uv = np.stack([uu.ravel(), vv.ravel()], axis=-1)
        inside = charts.in_trim_uv(uv, f).reshape(resolution + 1, resolution + 1)
        pts = surf.point(uv[:, 0], uv[:, 1])
        for p in pts:
            lines.append(f"v {p[0]} {p[1]} {p[2]}")

        def nid(i, j):
            return base + i * (resolution + 1) + j

        for i in range(resolution):
            for j in range(resolution):
                if inside[i, j] and inside[i + 1, j] and inside[i + 1, j + 1] \
                        and inside[i, j + 1]:
                    lines.append(f"f {nid(i, j)} {nid(i + 1, j)} "
                                 f"{nid(i + 1, j + 1)} {nid(i, j + 1)}")
        base += (resolution + 1) ** 2
    atomic_write_text(path, "\n".join(lines) + "\n")


def export_vhp_debug(model: BrepModel, path):
    """Voronoi label grids and VHP sample points for visualization."""
    charts = FaceCharts(model)
    cfg = SamplingConfig()
    descs = extract_vhp(model, cfg, charts)
    doc = {"format": "brepcodec-vhp-debug/1", "faces": [], "records": []}
    for f in range(len(model.faces)):
        doc["faces"].append({"face": f, "domain": list(charts.domains[f]),
                             "resolution": UV_GRID,
                             "labels": voronoi_assign(model, f, charts).tolist()})
    for h, (half_patch, next_samples, label) in enumerate(zip(*unpack_descriptor(descs, cfg))):
        doc["records"].append({
            "halfedge": h,
            "label": int(label),
            "half_patch": half_patch.tolist(),
            "next_samples": next_samples.tolist(),
        })
    atomic_write_text(path, json.dumps(doc) + "\n")
