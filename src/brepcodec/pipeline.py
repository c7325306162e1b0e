"""End-to-end helpers: normalize, encode, decode, and verify round trips."""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .codec import (
    COORD_BINS,
    CodecConfig,
    TokenSequence,
    canonical_order,
    component_edges,
    model_descriptors,
    parse,
    tokenize,
)
from .model import BrepModel, normalize, euler_report
from .reconstruct import ReconstructionReport, reconstruct
from .rq import Codebook, train_codebook

VERTEX_TOLERANCE = 0.5 / COORD_BINS + 1e-9   # half a coordinate bin


def lossless_codebook(model: BrepModel, cfg: CodecConfig | None = None) -> Codebook:
    """Codebook whose level-1 centroids are the model's own descriptors.

    Deeper levels cluster zero residuals, so encoding stays exact while the
    default four-level token layout applies.
    """
    cfg = cfg or CodecConfig()
    descs = model_descriptors(model, cfg.sampling)
    distinct = np.unique(descs, axis=0)
    return train_codebook(descs, depth=4, size=distinct.shape[0], seed=0)


@dataclass
class RoundtripResult:
    ok: bool = False
    records_match: bool = False
    max_vertex_error: float = float("inf")
    shells_match: bool = False
    watertight: bool = False
    notes: list = field(default_factory=list)
    report: ReconstructionReport | None = None


def _canonical_structure(model: BrepModel):
    """Per-component positions and edge multisets under canonical order."""
    _, comps = canonical_order(model)
    positions = [model.vertices[list(comp)] for comp in comps]
    edges = [Counter((earlier, later) for later, group in groups.items() for earlier, _ in group)
             for groups in component_edges(model, comps)]
    return positions, edges


def _shell_tuples(shells):
    return sorted((s.vertices, s.edges, s.faces, s.inner_loops, s.genus) for s in shells)


def roundtrip_check(model: BrepModel, codebook: Codebook | None = None,
                    cfg: CodecConfig | None = None) -> RoundtripResult:
    """tokenize -> parse -> reconstruct -> compare against the source.

    With no codebook supplied, a lossless per-model codebook is trained so
    the check isolates the sequence machinery.  Topology must round-trip
    exactly; vertex positions may move by at most half a quantization bin.
    """
    cfg = cfg or CodecConfig()
    result = RoundtripResult()

    normed, transform = normalize(model)
    cb = codebook if codebook is not None else lossless_codebook(normed, cfg)
    seq = tokenize(normed, cb, cfg, transform=transform)
    records = parse(seq, cb, cfg)

    src_pos, src_edges = _canonical_structure(normed)
    if len(records.components) != len(src_pos):
        result.notes.append("component count mismatch")
        return result
    records_ok = True
    max_err = 0.0
    for comp, pos, edges in zip(records.components, src_pos, src_edges):
        if comp.positions.shape != pos.shape:
            records_ok = False
            result.notes.append("vertex count mismatch")
            break
        max_err = max(max_err, float(np.abs(comp.positions - pos).max()))
        if Counter(tuple(sorted(e)) for e in comp.edges) != edges:
            records_ok = False
            result.notes.append("adjacency multigraph mismatch")
            break
    result.records_match = records_ok
    result.max_vertex_error = max_err
    if not records_ok:
        return result
    if max_err > VERTEX_TOLERANCE:
        result.notes.append(f"vertex error {max_err:.2e} above tolerance")
        return result

    rec_model, report = reconstruct(records, cfg.sampling)
    result.report = report
    if rec_model is None:
        result.notes.append("reconstruction produced no model")
        return result
    result.watertight = bool(report.success)
    # validate's shells: empty when the rebuild fails its twin, loop or manifold checks
    result.shells_match = _shell_tuples(euler_report(normed)) \
        == _shell_tuples(report.validation.shells)
    if not result.shells_match:
        result.notes.append("per-shell (V, E, F, H, genus) mismatch")
    result.ok = result.records_match and result.watertight and result.shells_match \
        and max_err <= VERTEX_TOLERANCE
    return result


def encode_model(model: BrepModel, codebook: Codebook,
                 cfg: CodecConfig | None = None) -> TokenSequence:
    """Normalize then tokenize; the transform rides in the header."""
    cfg = cfg or CodecConfig()
    normed, transform = normalize(model)
    return tokenize(normed, codebook, cfg, transform=transform)


def decode_tokens(seq, codebook: Codebook, cfg: CodecConfig | None = None):
    """Parse then reconstruct; returns (model | None, report)."""
    cfg = cfg or CodecConfig()
    records = parse(seq, codebook, cfg)
    return reconstruct(records, cfg.sampling)


def canonical_token_key(model: BrepModel, codebook: Codebook,
                        cfg: CodecConfig | None = None) -> tuple:
    """Duplicate-detection key: the canonical token tuple of a model."""
    return tuple(encode_model(model, codebook, cfg).tokens)
