import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from brepcodec.codec import CodecConfig, descriptor_dim_weights, model_descriptors
from brepcodec.model import normalize
from brepcodec.rq import (
    Codebook,
    CodebookError,
    encoding_errors,
    reconstruction_rms,
    rq_decode,
    rq_encode,
    rq_encode_many,
    train_codebook,
)
from brepcodec.synth import FAMILIES, CorpusSpec, synth_corpus


def partial_decode(codes, cb, depth):
    """Reconstruction using only the first `depth` levels."""
    z = np.zeros(cb.dim)
    for lvl in range(depth):
        z = z + cb.levels[lvl][codes[lvl]]
    return z * cb.scale + cb.mean


def oracle_quantizer_error(q, cb, depth):
    """Independent greedy-residual walk in the standardized metric."""
    r = (np.asarray(q, dtype=float) - cb.mean) / cb.scale
    for lvl in range(depth):
        d = ((cb.levels[lvl] - r) ** 2).sum(axis=1)
        r = r - cb.levels[lvl][int(d.argmin())]
    return float(np.linalg.norm(r))


class TestTraining:
    def test_single_repeated_descriptor(self):
        d = np.array([0.2, 0.7, 0.1, 0.9])
        corpus = np.tile(d, (5, 1))
        cb = train_codebook(corpus, depth=1, size=2, seed=0)
        codes = rq_encode(d, cb)
        rec = rq_decode(codes, cb)
        assert np.abs(rec - d).max() < 1e-12
        # some trained centroid denormalizes to the descriptor itself
        denorm = cb.levels[0][:2] * cb.scale + cb.mean
        assert min(np.abs(denorm - d).max(axis=1)) < 1e-12

    def test_two_cluster_means(self):
        rng = np.random.default_rng(3)
        a = np.tile([0.0, 0.0, 0.0], (40, 1)) + rng.normal(0, 1e-3, (40, 3))
        b = np.tile([10.0, 10.0, 10.0], (40, 1)) + rng.normal(0, 1e-3, (40, 3))
        corpus = np.vstack([a, b])
        cb = train_codebook(corpus, depth=1, size=2, seed=0)
        denorm = cb.levels[0][:2] * cb.scale + cb.mean
        means = np.stack([a.mean(axis=0), b.mean(axis=0)])
        table = np.linalg.norm(denorm[:, None, :] - means[None, :, :], axis=2)
        assert table.min(axis=1).max() < 1e-6

    def test_corpus_too_small(self):
        with pytest.raises(CodebookError, match="size of at most"):
            train_codebook(np.zeros((3, 4)), depth=1, size=8)

    def test_deterministic(self):
        rng = np.random.default_rng(0)
        corpus = rng.random((128, 16))
        c1 = train_codebook(corpus, depth=3, size=16, seed=42)
        c2 = train_codebook(corpus, depth=3, size=16, seed=42)
        assert c1.content_id() == c2.content_id()
        c3 = train_codebook(corpus, depth=3, size=16, seed=43)
        assert c3.content_id() != c1.content_id()

    def test_content_id_is_fixed_and_arrays_read_only(self):
        levels = np.random.default_rng(2).random((2, 5, 3))
        cb = Codebook(levels, np.zeros(3), np.ones(3))
        first = cb.content_id()
        levels[0, 0, 0] = 9.0             # the codebook holds a copy
        assert cb.content_id() == first
        assert Codebook(cb.levels, cb.mean, cb.scale).content_id() == first
        for name in ("levels", "mean", "scale"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(cb, name)[0] = 9.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            cb.levels = levels
        assert cb.content_id() == first

    def test_non_finite_corpus_rejected(self):
        corpus = np.random.default_rng(9).random((32, 4))
        corpus[5, 2] = np.nan
        with pytest.raises(CodebookError, match="non-finite"):
            train_codebook(corpus, depth=1, size=4)

    def test_content_ids_pinned(self):
        # Codebooks are fixed by their seed; these ids were recorded before
        # k-means moved to the blocked ``‖c‖² − 2p·c`` kernel, on numpy's
        # bundled OpenBLAS (another BLAS may round the products differently),
        # and the first again when the half-patch walk began to exit in
        # closed form, which moves its descriptors.
        # The first corpus has 1,818 rows x 64 centroids x 85 dims, above the
        # 4M-entry size at which the old code switched distance formulas;
        # the second is below it.
        cfg = CodecConfig().sampling
        spec = CorpusSpec(counts={f: 5 for f in FAMILIES}, components=(1, 5), seed=11)
        descs = np.concatenate([model_descriptors(normalize(m)[0], cfg)
                                for _, m in synth_corpus(spec)])
        cb = train_codebook(descs, depth=4, size=64, seed=0, max_iter=25,
                            dim_weights=descriptor_dim_weights(cfg))
        assert cb.content_id() == "70c95f4e1eb2f6dd"
        small = train_codebook(np.random.default_rng(12).random((300, 12)),
                               depth=3, size=32, seed=5)
        assert small.content_id() == "37f54b8f2d07c71b"

    def test_zero_centroid_present(self):
        rng = np.random.default_rng(1)
        cb = train_codebook(rng.random((64, 8)), depth=2, size=8, seed=0)
        assert np.all(cb.levels[:, -1, :] == 0.0)

    def test_dim_weights_change_clustering_not_decoding(self):
        rng = np.random.default_rng(5)
        corpus = rng.random((96, 6))
        w = np.ones(6)
        w[-1] = 8.0
        cb = train_codebook(corpus, depth=2, size=8, seed=0, dim_weights=w)
        # decode is still an exact inverse of the stored normalization
        codes = rq_encode_many(corpus, cb)
        rec = rq_decode(codes, cb)
        assert rec.shape == corpus.shape
        assert reconstruction_rms(corpus, cb) < 1.0


class TestEncodeDecode:
    def test_level1_centroid_recovered_exactly(self):
        rng = np.random.default_rng(2)
        corpus = rng.random((64, 8))
        cb = train_codebook(corpus, depth=3, size=8, seed=0)
        target = cb.levels[0][4] * cb.scale + cb.mean
        codes = rq_encode(target, cb)
        assert codes[0] == 4
        assert np.abs(rq_decode(codes, cb) - target).max() < 1e-9

    def test_mean_vector_hits_zero_centroids(self):
        rng = np.random.default_rng(4)
        corpus = rng.random((64, 8))
        cb = train_codebook(corpus, depth=4, size=8, seed=0)
        codes = rq_encode(cb.mean.copy(), cb)
        assert np.all(codes == cb.level_size - 1)
        assert np.abs(rq_decode(codes, cb) - cb.mean).max() < 1e-12

    def test_monotone_in_depth_per_vector(self):
        rng = np.random.default_rng(6)
        corpus = rng.random((200, 12))
        cb = train_codebook(corpus, depth=4, size=16, seed=0)
        errs = np.stack([encoding_errors(corpus, cb, d) for d in range(1, 5)])
        assert np.all(np.diff(errs, axis=0) <= 1e-12)
        # and matches the independent oracle at every depth
        for d in range(1, 5):
            oracle = [oracle_quantizer_error(q, cb, d) for q in corpus[:20]]
            assert np.allclose(errs[d - 1][:20], oracle)

    def test_non_finite_descriptor_rejected(self):
        rng = np.random.default_rng(10)
        cb = train_codebook(rng.random((32, 4)), depth=2, size=4, seed=0)
        with pytest.raises(CodebookError, match="non-finite"):
            rq_encode_many(np.array([[0.1, np.nan, 0.3, 0.4]]), cb)

    def test_decode_empty_code_array(self):
        rng = np.random.default_rng(11)
        cb = train_codebook(rng.random((32, 4)), depth=2, size=4, seed=0)
        assert rq_decode(np.zeros((0, cb.depth), dtype=int), cb).shape == (0, cb.dim)

    def test_batch_decode_matches_rows_bitwise(self):
        # the parser decodes all half-edges of a component in one call
        rng = np.random.default_rng(8)
        cb = train_codebook(rng.random((96, 10)), depth=4, size=8, seed=0)
        codes = rng.integers(0, cb.level_size, size=(7, cb.depth))
        batch = rq_decode(codes, cb)
        assert np.array_equal(batch, np.stack([rq_decode(c, cb) for c in codes]))

    def test_token_range_validation(self):
        rng = np.random.default_rng(7)
        cb = train_codebook(rng.random((32, 4)), depth=2, size=4, seed=0)
        with pytest.raises(CodebookError):
            rq_decode([0, cb.level_size], cb)
        with pytest.raises(CodebookError):
            rq_encode(np.zeros(17), cb)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_monotonicity_random_queries(self, seed):
        rng = np.random.default_rng(99)
        corpus = rng.random((120, 10))
        cb = train_codebook(corpus, depth=4, size=12, seed=0)
        q = np.random.default_rng(seed).random(10)
        errs = [encoding_errors(q[None, :], cb, d)[0] for d in range(1, 5)]
        for a, b in zip(errs, errs[1:]):
            assert b <= a + 1e-12
