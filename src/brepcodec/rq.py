"""Residual vector quantization over descriptor vectors.

A codebook holds D ordered levels trained by stacked k-means: level 1
clusters the standardized descriptors, each deeper level clusters the
running residuals.  Every level carries one extra all-zero centroid, so
adding a level can never increase a vector's reconstruction error.

A level trains by k-means++ seeding (one matrix-vector product per new
centre), then Lloyd steps: each row goes to the argmin of ``‖c‖² − 2p·c``
(the row-constant ``‖p‖²`` drops out; one GEMM per block of rows), and
centroids move to ``np.bincount`` means.  Encoding takes the same argmin.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np


class CodebookError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class Codebook:
    """Quantizer levels and the normalization record.

    The constructor stores read-only float64 copies of the arrays, so the
    content id, hashed once here, stays the id of what the codebook holds.
    """

    levels: np.ndarray     # (D, K+1, dim); levels[:, -1] is the zero centroid
    mean: np.ndarray       # (dim,)
    scale: np.ndarray      # (dim,)
    _id: str = field(init=False, repr=False)

    def __post_init__(self):
        h = hashlib.sha256()
        for name in ("levels", "mean", "scale"):
            a = np.array(getattr(self, name), dtype=np.float64, order="C")
            a.flags.writeable = False
            object.__setattr__(self, name, a)
            h.update(a.tobytes())
        object.__setattr__(self, "_id", h.hexdigest()[:16])

    @property
    def depth(self) -> int:
        return int(self.levels.shape[0])

    @property
    def level_size(self) -> int:
        return int(self.levels.shape[1])

    @property
    def dim(self) -> int:
        return int(self.levels.shape[2])

    def content_id(self) -> str:
        return self._id


NEAREST_BLOCK = 2048   # rows per GEMM in `_nearest`


def _nearest(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Index of each row's nearest centre: the argmin of ``‖c‖² − 2p·c``.

    One GEMM per block of rows, so no n×k matrix is allocated whole.
    """
    c2 = (centers ** 2).sum(axis=1)
    neg2ct = -2.0 * centers.T
    idx = np.empty(points.shape[0], dtype=np.intp)
    for i in range(0, points.shape[0], NEAREST_BLOCK):
        s = points[i:i + NEAREST_BLOCK] @ neg2ct
        s += c2
        idx[i:i + NEAREST_BLOCK] = s.argmin(axis=1)
    return idx


def _kmeans(points: np.ndarray, k: int, rng: np.random.Generator,
            max_iter: int = 50) -> np.ndarray:
    """Deterministic Lloyd k-means with k-means++ seeding."""
    n, dim = points.shape
    p2 = np.einsum("ij,ij->i", points, points)
    centers = np.empty((k, dim))
    d2 = np.full(n, np.inf)
    centers[0] = points[int(rng.integers(0, n))]
    for c in range(1, k):
        prev = centers[c - 1]
        d = points @ (-2.0 * prev)
        d += p2 + prev @ prev
        # ‖p‖² − 2p·c + ‖c‖² cancels to rounding noise for a row on ``prev``;
        # take those rows exactly, so repeats of a centre stay at distance 0
        # and are never drawn
        near = d <= 1e-9 * p2
        d[near] = ((points[near] - prev) ** 2).sum(axis=1)
        np.minimum(d2, d, out=d2)
        total = d2.sum()
        idx = (int(rng.integers(0, n)) if total <= 0.0
               else int(np.searchsorted(np.cumsum(d2), rng.random() * total)))
        centers[c] = points[min(idx, n - 1)]

    assign = np.full(n, -1)
    cols = np.arange(dim)
    for _ in range(max_iter):
        new_assign = _nearest(points, centers)
        members, reseeded = _reseed_empty(points, centers, new_assign)
        sums = np.bincount((members[:, None] * dim + cols).ravel(),
                           weights=points.ravel(), minlength=(k + 1) * dim)
        counts = np.bincount(members, minlength=k + 1)[:k, None]
        centers = sums[:k * dim].reshape(k, dim) / np.maximum(counts, 1)
        centers[list(reseeded)] = points[list(reseeded.values())]
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
    return centers


def _reseed_empty(points, centers, assign):
    """Move the row farthest from its centre into each empty cluster.

    Clusters take their means in order, so a row moved into cluster ``c``
    still counts in its old cluster's mean if that one is below ``c``, and
    not if it is above.  Returns each row's mean cluster (``k`` for none)
    and the row that seeds each empty cluster; updates ``assign``.
    """
    k = centers.shape[0]
    counts = np.bincount(assign, minlength=k)
    members, reseeded = assign.copy(), {}
    if counts.all():
        return members, reseeded
    dist = ((points - centers[assign]) ** 2).sum(axis=1)
    for c in range(k):
        if counts[c]:
            continue
        far = int(dist.argmax())
        if assign[far] > c:
            counts[assign[far]] -= 1
            members[far] = k
        assign[far] = c
        dist[far] = ((points[far] - centers[c]) ** 2).sum()
        reseeded[c] = far
    return members, reseeded


def train_codebook(corpus: np.ndarray, depth: int = 4, size: int = 256,
                   seed: int = 0, max_iter: int = 50,
                   dim_weights=None) -> Codebook:
    """Stacked k-means codebook; deterministic for a fixed seed.

    ``size`` counts the trained centroids per level; the stored level is
    one larger because the zero centroid is appended.  ``dim_weights``
    optionally emphasizes dimensions during clustering (the stored
    normalization record absorbs it, so decoding stays exact); descriptor
    corpora use it to keep the trailing binary label crisp.
    """
    corpus = np.asarray(corpus, dtype=float)
    if corpus.ndim != 2:
        raise CodebookError("corpus must be a 2D (count, dim) array")
    n, dim = corpus.shape
    if depth < 1:
        raise CodebookError("depth must be >= 1")
    if n < size:
        raise CodebookError(
            f"corpus of {n} descriptors is smaller than codebook size {size}; "
            f"use a size of at most {n}"
        )
    if not np.isfinite(corpus).all():
        raise CodebookError("corpus contains non-finite values")
    mean = corpus.mean(axis=0)
    std = corpus.std(axis=0)
    scale = np.where(std > 1e-12, std, 1.0)
    if dim_weights is not None:
        w = np.asarray(dim_weights, dtype=float).reshape(dim)
        if not np.all(np.isfinite(w) & (w > 0)):
            raise CodebookError("dim_weights must be positive and finite")
        scale = scale / w

    rng = np.random.default_rng(seed)
    residual = (corpus - mean) / scale
    levels = np.zeros((depth, size + 1, dim))
    for d in range(depth):
        centers = _kmeans(residual, size, rng, max_iter=max_iter)
        levels[d, :size] = centers
        # levels[d, size] stays zero
        residual = residual - levels[d][_nearest(residual, levels[d])]
    return Codebook(levels=levels, mean=mean, scale=scale)


def rq_encode(descriptor: np.ndarray, cb: Codebook) -> np.ndarray:
    """Greedy per-level nearest-centroid codes for one descriptor."""
    return rq_encode_many(np.asarray(descriptor, dtype=float)[None, :], cb)[0]


def rq_encode_many(descriptors: np.ndarray, cb: Codebook) -> np.ndarray:
    return _descend(descriptors, cb, cb.depth)[0]


def _descend(descriptors, cb: Codebook, depth: int):
    """Greedy nearest-centroid codes of the first ``depth`` levels, and the residuals."""
    d = np.asarray(descriptors, dtype=float)
    if d.ndim != 2 or d.shape[1] != cb.dim:
        raise CodebookError(f"descriptor length {d.shape[-1]} != codebook dim {cb.dim}")
    if not np.isfinite(d).all():
        raise CodebookError("descriptors contain non-finite values")
    residual = (d - cb.mean) / cb.scale
    codes = np.empty((d.shape[0], depth), dtype=int)
    for lvl in range(depth):
        codes[:, lvl] = _nearest(residual, cb.levels[lvl])
        residual = residual - cb.levels[lvl][codes[:, lvl]]
    return codes, residual


def rq_decode(codes, cb: Codebook) -> np.ndarray:
    codes = np.asarray(codes, dtype=int)
    if codes.shape[-1] != cb.depth:
        raise CodebookError(f"expected {cb.depth} codes, got {codes.shape[-1]}")
    if np.any((codes < 0) | (codes >= cb.level_size)):
        raise CodebookError(f"code outside level range [0, {cb.level_size})")
    z = sum(cb.levels[lvl][codes[..., lvl]] for lvl in range(cb.depth))
    return z * cb.scale + cb.mean


def reconstruction_rms(corpus: np.ndarray, cb: Codebook) -> float:
    """Root-mean-square per-scalar reconstruction error over a corpus."""
    corpus = np.asarray(corpus, dtype=float)
    codes = rq_encode_many(corpus, cb)
    rec = rq_decode(codes, cb)
    return float(np.sqrt(np.mean((rec - corpus) ** 2)))


def encoding_errors(corpus: np.ndarray, cb: Codebook,
                    depth: int | None = None) -> np.ndarray:
    """Per-vector residual norms in the quantizer's standardized metric.

    This is the objective the greedy encoder minimizes, so the zero
    centroid makes it non-increasing in the number of levels used.
    """
    depth = cb.depth if depth is None else depth
    if not 1 <= depth <= cb.depth:
        raise CodebookError(f"depth must be in [1, {cb.depth}]")
    return np.linalg.norm(_descend(corpus, cb, depth)[1], axis=1)
