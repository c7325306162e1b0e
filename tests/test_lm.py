import hashlib

import numpy as np
import pytest

from brepcodec.codec import CodecConfig, VocabLayout, initial_state, parse, step, tokenize
from brepcodec.lm import NGramModel, SamplerConfig, autocomplete, fit_ngram, sample_sequence
from brepcodec.model import normalize
from brepcodec.pipeline import lossless_codebook
from brepcodec.primitives import box, merge_models, ngon_prism

CFG = CodecConfig()


@pytest.fixture(scope="module")
def cube_lm():
    models = [box(at=(0, 0, 0)), box(at=(0, 0, 0)), ngon_prism(n=4)]
    normed = [normalize(m)[0] for m in models]
    cb = lossless_codebook(normed[0])
    layout = VocabLayout.for_codebook(cb)
    # the cube and prism tokenize under the cube's codebook? use per-model
    # lossless books with a shared layout: keep only cubes for simplicity
    seqs = [tokenize(normed[0], cb, CFG) for _ in range(4)]
    lm = fit_ngram(seqs, order=4, smoothing=0.1, vocab_size=layout.vocab_size)
    return lm, layout, seqs[0], cb


class TestFit:
    def test_conditionals_normalize(self, cube_lm):
        lm, layout, seq, _ = cube_lm
        for ctx in ([], seq.tokens[:1], seq.tokens[:7], [9999, 1, 2]):
            probs = lm.conditional(ctx)
            assert probs.shape == (layout.vocab_size,)
            assert abs(probs.sum() - 1.0) < 1e-12
            assert np.all(probs > 0)

    def test_greedy_reproduces_single_sequence_corpus(self, cube_lm):
        _, layout, seq, _ = cube_lm
        # an order long enough to disambiguate repeated quantizer runs
        lm12 = fit_ngram([seq], order=12, vocab_size=layout.vocab_size)
        out = sample_sequence(lm12, layout, SamplerConfig(seed=0), greedy=True)
        assert out.tokens == seq.tokens

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            fit_ngram([])


class TestSample:
    def test_mask_soundness_and_parse(self, cube_lm):
        lm, layout, _, cb = cube_lm
        for seed in range(30):
            res = sample_sequence(lm, layout, SamplerConfig(seed=seed,
                                                            temperature=0.8))
            if res.truncated:
                continue
            state = initial_state()
            for tok in res.tokens[1:]:
                state = step(state, tok, layout)   # raises if mask was wrong
            parse(res.tokens, layout=layout)

    def test_determinism(self, cube_lm):
        lm, layout, _, _ = cube_lm
        a = sample_sequence(lm, layout, SamplerConfig(seed=5))
        b = sample_sequence(lm, layout, SamplerConfig(seed=5))
        assert a.tokens == b.tokens

    def test_truncation_handling(self, cube_lm):
        lm, layout, _, _ = cube_lm
        # stop mid-vertex: no legal <end>, marked unparseable
        res = sample_sequence(lm, layout, SamplerConfig(seed=0, max_length=5))
        assert res.truncated and not res.parseable
        # stop after a complete vertex: close with a forced <end>
        res2 = sample_sequence(lm, layout, SamplerConfig(seed=0, max_length=7))
        if res2.parseable:
            assert res2.tokens[-1] == layout.end
            parse(res2.tokens, layout=layout)

    def test_temperature_must_be_positive(self):
        with pytest.raises(ValueError):
            SamplerConfig(temperature=0.0)

    def test_nonzero_watertight_fraction(self):
        # regular cube corpus at a cool temperature: generation sometimes
        # reproduces solid models end to end
        from brepcodec.pipeline import decode_tokens

        normed, _ = normalize(box())
        cb = lossless_codebook(normed)
        layout = VocabLayout.for_codebook(cb)
        seqs = [tokenize(normed, cb, CFG)] * 8
        lm = fit_ngram(seqs, order=4, vocab_size=layout.vocab_size)
        watertight = 0
        for seed in range(40):
            res = sample_sequence(lm, layout, SamplerConfig(seed=seed,
                                                            temperature=0.3))
            if res.truncated:
                continue
            model, rep = decode_tokens(res.tokens, cb, CFG)
            watertight += bool(model is not None and rep.success)
        assert watertight > 0


class TestAutocomplete:
    def test_prefix_preserved_and_parseable(self, cube_lm):
        lm, layout, seq, _ = cube_lm
        prefix = seq.tokens[:-1] + [layout.sep]
        res = autocomplete(prefix, lm, layout, SamplerConfig(seed=1,
                                                             temperature=0.5))
        assert res.tokens[: len(prefix)] == prefix
        if not res.truncated:
            parse(res.tokens, layout=layout)

    def test_start_only_prefix(self, cube_lm):
        lm, layout, _, _ = cube_lm
        res = autocomplete([layout.start], lm, layout, SamplerConfig(seed=2))
        unconditional = sample_sequence(lm, layout, SamplerConfig(seed=2))
        assert res.tokens == unconditional.tokens

    def test_bad_prefix_rejected(self, cube_lm):
        lm, layout, seq, _ = cube_lm
        with pytest.raises(ValueError):
            autocomplete(seq.tokens[:5], lm, layout)   # mid-component
        with pytest.raises(ValueError):
            autocomplete(seq.tokens, lm, layout)       # complete sequence
        with pytest.raises(ValueError):
            autocomplete([0, 1], lm, layout)           # missing <start>

    def test_distinct_seeds_distinct_continuations(self, cube_lm):
        lm, layout, seq, _ = cube_lm
        prefix = seq.tokens[:-1] + [layout.sep]
        outs = set()
        for seed in range(6):
            res = autocomplete(prefix, lm, layout,
                               SamplerConfig(seed=seed, temperature=1.2))
            if not res.truncated:
                parse(res.tokens, layout=layout)
            outs.add(tuple(res.tokens))
        assert len(outs) >= 2


def _digest(tokens) -> str:
    return hashlib.sha256(np.asarray(tokens, dtype=np.int64).tobytes()).hexdigest()[:16]


# (length, sha256 prefix of the int64 token ids) per seed 0-9, pinned so that
# any change to the grammar, the masks or the draw that moves a token shows
GOLDEN_SAMPLES = {
    (2, 0.7): [(158, "7762e7ee662d621e"), (317, "ed058e77fba7b1ca"),
               (176, "bbd3cbeaa7974855"), (158, "c7e88be2a7ec7e01"),
               (143, "a450db07fb85edcd"), (11, "9ae3377ce73d563c"),
               (83, "b054f7c4592f78b0"), (209, "c388982ba339906f"),
               (158, "3a4dc95311aaaf05"), (116, "e9ec015cd9e5e6d2")],
    (4, 1.0): [(801, "3726b259db15fc1a"), (1475, "1e509d29b6846be5"),
               (1373, "9b2ed191531d94b4"), (158, "dfa268124dbb2de0"),
               (2355, "47e51dcf8446dff2"), (11, "3dfd132e6f48d521"),
               (83, "f49026554ea70f74"), (347, "74018dd05ec6fb1c"),
               (679, "6665cb9df0c4bcf0"), (116, "3c4b82e4c0b5a129")],
}
GOLDEN_AUTOCOMPLETE = (291, "9f70abfe57d09f27")


class TestGoldenStreams:
    @pytest.mark.parametrize("order,temperature", sorted(GOLDEN_SAMPLES))
    def test_sample_sequence(self, cube_lm, order, temperature):
        _, layout, seq, _ = cube_lm
        lm = fit_ngram([seq] * 4, order=order, vocab_size=layout.vocab_size)
        got = []
        for seed in range(10):
            res = sample_sequence(lm, layout, SamplerConfig(seed=seed,
                                                            temperature=temperature))
            got.append((len(res.tokens), _digest(res.tokens)))
        assert got == GOLDEN_SAMPLES[(order, temperature)]

    def test_autocomplete(self, cube_lm):
        lm, layout, seq, _ = cube_lm
        prefix = seq.tokens[:-1] + [layout.sep]
        res = autocomplete(prefix, lm, layout, SamplerConfig(seed=3))
        assert (len(res.tokens), _digest(res.tokens)) == GOLDEN_AUTOCOMPLETE
