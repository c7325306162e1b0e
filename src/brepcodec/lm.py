"""Corpus-fitted n-gram sequence model sampled under grammar masks.

A deliberately small stand-in for a learned sequence model: it exists to
drive the generation-to-reconstruction path end to end.  Every sampled
token is drawn from the renormalized intersection of the model's
conditional distribution with the grammar's validity mask, so any
non-truncated sample parses by construction.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .codec import GrammarState, VocabLayout, allowed_tokens, initial_state, step, validity_mask

PAD = -1


@dataclass
class SamplerConfig:
    seed: int = 0
    temperature: float = 1.0
    max_length: int = 3072

    def __post_init__(self):
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")


@dataclass(eq=False)
class NGramModel:
    order: int = 4
    smoothing: float = 0.1
    vocab_size: int = 0
    counts: dict = field(default_factory=dict)    # context tuple -> {token: n}
    totals: dict = field(default_factory=dict)    # context tuple -> n

    def _hit_arrays(self, ctx):
        """(sorted token ids, counts) per context, cached for the sampler."""
        cache = self.__dict__.setdefault("_arrays", {})
        hit = cache.get(ctx)
        if hit is None:
            slot = self.counts.get(ctx)
            if not slot:
                return None
            toks = np.fromiter(slot.keys(), dtype=int, count=len(slot))
            vals = np.fromiter(slot.values(), dtype=float, count=len(slot))
            srt = np.argsort(toks)
            hit = (toks[srt], vals[srt])
            cache[ctx] = hit
        return hit

    def context_key(self, context) -> tuple:
        """The trailing order-1 tokens, left-padded like the training pass."""
        if self.order <= 1:
            return ()
        tail = tuple(context[-(self.order - 1):])
        if len(tail) < self.order - 1:
            tail = (PAD,) * (self.order - 1 - len(tail)) + tail
        return tail

    def conditional(self, context) -> np.ndarray:
        """Additively smoothed next-token distribution over the vocabulary."""
        probs = np.full(self.vocab_size, self.smoothing)
        hits = self.counts.get(self.context_key(context))
        if hits:
            for tok, n in hits.items():
                probs[tok] += n
        probs /= self.smoothing * self.vocab_size \
            + self.totals.get(self.context_key(context), 0)
        return probs


@dataclass(eq=False)
class SampleResult:
    tokens: list
    truncated: bool = False
    parseable: bool = True


def fit_ngram(sequences, order: int = 4, smoothing: float = 0.1,
              vocab_size: int | None = None) -> NGramModel:
    """Count n-gram contexts over token sequences (lists of ints)."""
    seqs = [list(s.tokens) if hasattr(s, "tokens") else list(s) for s in sequences]
    if not seqs:
        raise ValueError("cannot fit an n-gram model on an empty corpus")
    if vocab_size is None:
        vocab_size = max(max(s) for s in seqs) + 1
    model = NGramModel(order=order, smoothing=smoothing, vocab_size=vocab_size)
    pad = (PAD,) * (order - 1)
    for s in seqs:
        padded = pad + tuple(s)
        for i in range(len(s)):
            ctx = padded[i: i + order - 1]
            tok = padded[i + order - 1]
            slot = model.counts.setdefault(ctx, {})
            slot[tok] = slot.get(tok, 0) + 1
            model.totals[ctx] = model.totals.get(ctx, 0) + 1
    return model


def _draw(model: NGramModel, layout: VocabLayout, state: GrammarState,
          context, cfg: SamplerConfig, rng: np.random.Generator,
          greedy: bool = False) -> int:
    idx = allowed_tokens(state, layout)
    if idx.size == 0:
        raise RuntimeError("empty validity mask; grammar invariant broken")
    hits = model._hit_arrays(model.context_key(context))
    weights = np.full(idx.size, model.smoothing)
    if hits is not None:
        toks, vals = hits
        pos = np.searchsorted(idx, toks)
        pos_ok = pos < idx.size
        match = np.zeros(toks.size, dtype=bool)
        match[pos_ok] = idx[pos[pos_ok]] == toks[pos_ok]
        np.add.at(weights, pos[match], vals[match])
    if greedy:
        return int(idx[int(np.argmax(weights))])
    if cfg.temperature != 1.0:
        weights = weights ** (1.0 / cfg.temperature)
    cum = np.cumsum(weights)
    r = rng.random() * cum[-1]
    return int(idx[min(int(np.searchsorted(cum, r, side="right")), idx.size - 1)])


def _continue_sampling(model, layout, cfg, tokens, state, rng,
                       greedy: bool = False) -> SampleResult:
    tokens = list(tokens)
    while len(tokens) < cfg.max_length:
        tok = _draw(model, layout, state, tokens, cfg, rng, greedy)
        tokens.append(tok)
        state = step(state, tok, layout)
        if tok == layout.end:
            return SampleResult(tokens=tokens, truncated=False, parseable=True)
    # truncated: force-close if the grammar allows it here
    if validity_mask(state, layout)[layout.end]:
        tokens.append(layout.end)
        return SampleResult(tokens=tokens, truncated=True, parseable=True)
    return SampleResult(tokens=tokens, truncated=True, parseable=False)


def sample_sequence(model: NGramModel, layout: VocabLayout,
                    cfg: SamplerConfig | None = None,
                    greedy: bool = False) -> SampleResult:
    """Sample one sequence under validity masks; deterministic per seed."""
    cfg = cfg or SamplerConfig()
    rng = np.random.default_rng(cfg.seed)
    return _continue_sampling(model, layout, cfg, [layout.start],
                              initial_state(), rng, greedy)


def autocomplete(prefix, model: NGramModel, layout: VocabLayout,
                 cfg: SamplerConfig | None = None) -> SampleResult:
    """Continue a prefix that ends at a component boundary.

    The prefix must be <start> plus zero or more complete components each
    terminated by <sep>; the output repeats it verbatim before the sampled
    continuation.
    """
    cfg = cfg or SamplerConfig()
    tokens = list(prefix.tokens) if hasattr(prefix, "tokens") else list(prefix)
    if not tokens or tokens[0] != layout.start:
        raise ValueError("prefix must begin with <start>")
    state = initial_state()
    for tok in tokens[1:]:
        state = step(state, tok, layout)
    if state != initial_state():
        raise ValueError("prefix must stop at a component boundary "
                         "(immediately after <start> or a <sep>)")
    rng = np.random.default_rng(cfg.seed)
    return _continue_sampling(model, layout, cfg, tokens, state, rng)
