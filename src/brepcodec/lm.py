"""Corpus-fitted n-gram sequence model sampled under grammar masks.

A deliberately small stand-in for a learned sequence model: it exists to
drive the generation-to-reconstruction path end to end.  Every sampled
token is drawn from the renormalized intersection of the model's
conditional distribution with the grammar's validity mask, so any
non-truncated sample parses by construction.

Draw tables: every draw is one lookup in a cached table of cumulative
tempered weights and one bisect; no weights are built per token.  A
coordinate or quantizer-code state allows one fixed id range whatever the
vertex count.  A pointer state allows ``[lo, pointer_base + count)``,
``<sep>`` and ``<end>``, where ``lo`` is 0 until the component holds
``pointer_max`` vertices and ``pointer_base`` after; its table holds the
cumulative weights of ``[lo, pointer_base + pointer_max)`` followed by the
two delimiter weights, and a draw at any count reads a prefix of it.
``np.cumsum`` adds in sequence, so a prefix holds the same floats as a table
built for that count alone.  Tables are cached on the model in one dict
per temperature, keyed ``(lo, hi, context)``; contexts the corpus never saw
share one table under context ``None``.  The sampler reads that dict
directly, so a seen context's table costs one lookup, and rolls the context
forward one token at a time.  The uniforms of a sequence are drawn in one
block.  A table is read from the counts once, so a fitted model's counts
must not change after sampling starts.
"""
from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .codec import MAX_TOKENS, VocabLayout, initial_state, step, transitions, validity_mask

PAD = -1


@dataclass
class SamplerConfig:
    seed: int = 0
    temperature: float = 1.0

    def __post_init__(self):
        if not (self.temperature > 0 and math.isfinite(self.temperature)):
            raise ValueError(f"temperature must be positive and finite, "
                             f"not {self.temperature!r}")


@dataclass(eq=False)
class NGramModel:
    order: int = 4
    smoothing: float = 0.1
    counts: dict = field(default_factory=dict)    # context tuple -> {token: n}

    def _draw_table(self, lo: int, hi: int, ctx, temperature: float,
                    tail: tuple = ()) -> array:
        """Cumulative tempered weights of tokens lo..hi-1 after ``ctx``, cached,
        then the tempered weights of the ``tail`` ids, not accumulated.

        Keyed by value: the weights depend only on the counts, the token
        range, the context and the temperature (a range fixes its tail).
        Every context without counts gets the plain smoothing weights, so
        those share one table (context ``None``) and the cache stays bounded
        by the corpus.
        """
        tables = self._tables_at(temperature)
        key = (lo, hi, ctx if ctx in self.counts else None)
        table = tables.get(key)
        if table is None:
            weights = _masked_weights(self, np.array([*range(lo, hi), *tail]), ctx)
            if temperature != 1.0:
                weights = weights ** (1.0 / temperature)
            weights[:hi - lo] = np.cumsum(weights[:hi - lo])
            table = tables[key] = array("d", weights.tobytes())
        return table

    def _tables_at(self, temperature: float) -> dict:
        """The cached tables at ``temperature``, keyed ``(lo, hi, ctx)``."""
        return self.__dict__.setdefault("_tables", {}).setdefault(temperature, {})

    def context_key(self, context) -> tuple:
        """The trailing order-1 tokens, left-padded like the training pass."""
        if self.order <= 1:
            return ()
        tail = tuple(context[-(self.order - 1):])
        if len(tail) < self.order - 1:
            tail = (PAD,) * (self.order - 1 - len(tail)) + tail
        return tail


@dataclass(eq=False)
class SampleResult:
    tokens: list
    truncated: bool = False
    parseable: bool = True


def check_ngram_parameters(order, smoothing) -> None:
    """Raise ValueError unless both are legal (for `fit_ngram` and `io.load_ngram`)."""
    # type(), not isinstance: True (or JSON true) is not a number here
    if not (type(order) is int and order >= 1):
        raise ValueError(f"n-gram order must be an integer >= 1, not {order!r}")
    if not (type(smoothing) in (int, float) and 0 <= smoothing < math.inf):
        raise ValueError(f"n-gram smoothing must be a finite number >= 0, not {smoothing!r}")


def fit_ngram(sequences, order: int = 4, smoothing: float = 0.1,
              vocab_size: int | None = None) -> NGramModel:
    """Count n-gram contexts over token sequences (lists of ints).

    ``vocab_size``, when given, refuses a corpus holding a token id at or
    above it; the model itself stores only its counts.
    """
    check_ngram_parameters(order, smoothing)
    seqs = [list(s.tokens) if hasattr(s, "tokens") else list(s) for s in sequences]
    if not seqs:
        raise ValueError("cannot fit an n-gram model on an empty corpus")
    if vocab_size is not None and any(t >= vocab_size for s in seqs for t in s):
        raise ValueError(f"corpus holds a token id >= vocab_size {vocab_size}")
    model = NGramModel(order=order, smoothing=smoothing)
    pad = (PAD,) * (order - 1)
    for s in seqs:
        padded = pad + tuple(s)
        for i in range(len(s)):
            ctx = padded[i: i + order - 1]
            tok = padded[i + order - 1]
            slot = model.counts.setdefault(ctx, {})
            slot[tok] = slot.get(tok, 0) + 1
    return model


def _masked_weights(model: NGramModel, idx: np.ndarray, ctx) -> np.ndarray:
    """Smoothed counts of the ascending token ids ``idx`` after ``ctx``."""
    weights = np.full(idx.size, model.smoothing)
    slot = model.counts.get(ctx)
    if slot:
        toks = np.fromiter(slot.keys(), dtype=int, count=len(slot))
        vals = np.fromiter(slot.values(), dtype=float, count=len(slot))
        pos = np.searchsorted(idx, toks)
        pos_ok = pos < idx.size
        match = np.zeros(toks.size, dtype=bool)
        match[pos_ok] = idx[pos[pos_ok]] == toks[pos_ok]
        weights[pos[match]] += vals[match]     # hit tokens are unique
    return weights


def _continue_sampling(model, layout, cfg, tokens, state, rng) -> SampleResult:
    tokens = list(tokens)
    temperature, end = cfg.temperature, layout.end
    delimiters = (layout.sep, end)
    pointer_hi = layout.pointer_base + layout.pointer_max
    tables = model._tables_at(temperature)   # a seen context's table in one lookup
    ctx = model.context_key(tokens)          # rolled forward by each token
    # one uniform per token up to the limit: the same doubles as one
    # rng.random() per draw, in the same order
    for u in rng.random(max(MAX_TOKENS - len(tokens), 0)).tolist():
        ranges = transitions(state, layout)
        lo, hi, state = ranges[0]
        if len(ranges) == 1:                 # one coordinate or quantizer-code range
            cum = tables.get((lo, hi, ctx))
            if cum is None:
                cum = model._draw_table(lo, hi, ctx, temperature)
            tok = lo + min(bisect_right(cum, u * cum[-1]), len(cum) - 1)
        else:                                # MODE_ADJ: [lo, pointer hi), <sep>, <end>
            cum = tables.get((lo, pointer_hi, ctx))
            if cum is None:
                cum = model._draw_table(lo, pointer_hi, ctx, temperature, delimiters)
            pointers, at_sep, at_end = ranges[-3:]
            n = pointers[1] - lo
            sep_total = cum[n - 1] + cum[-2]
            x = u * (sep_total + cum[-1])
            k = bisect_right(cum, x, 0, n)
            if k == n:                       # past the prefix: a delimiter
                tok, _, state = at_sep if x < sep_total else at_end
            else:
                tok = lo + k
                if tok >= hi:                # a pointer after the coordinate range
                    state = pointers[2]
        tokens.append(tok)
        if ctx:
            ctx = ctx[1:] + (tok,)
        if tok == end:
            return SampleResult(tokens=tokens, truncated=False, parseable=True)
    # truncated: force-close if the grammar allows it here
    if validity_mask(state, layout)[end]:
        tokens.append(end)
        return SampleResult(tokens=tokens, truncated=True, parseable=True)
    return SampleResult(tokens=tokens, truncated=True, parseable=False)


def sample_sequence(model: NGramModel, layout: VocabLayout,
                    cfg: SamplerConfig | None = None) -> SampleResult:
    """Sample one sequence under validity masks; deterministic per seed."""
    cfg = cfg or SamplerConfig()
    rng = np.random.default_rng(cfg.seed)
    return _continue_sampling(model, layout, cfg, [layout.start],
                              initial_state(), rng)


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
