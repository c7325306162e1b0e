"""The brepcodec benchmark workloads, their output checks and their metrics.

Three closed-loop workloads, one caller each, in one process:

* ``roundtrip``: each op is ``pipeline.roundtrip_check(model, codebook)``
  (acceptance criterion 1's path) with the codebook trained during set-up.
* ``encode``: the CLI's ``train-codebook`` + ``tokenize`` path as one batch
  job over all set-ups' models: normalize and ``model_descriptors`` on
  every model, one ``train_codebook``, then ``encode_model`` on every
  model.  Each model is one op; jobs repeat until the run time is used up.
* ``generate``: the CLI's ``generate`` path: each op samples one sequence
  from an order-2 n-gram fitted on corpus tokens during set-up and,
  unless it was truncated, decodes it with ``pipeline.decode_tokens``.

Every workload sets up several times, each time with its own corpus;
``setup_s`` is the median and the ops cycle over all the set-ups' inputs,
so no set-up is wasted and each run sees more distinct models.  A corpus
is stratified: one model per (acceptance family, component count 1..5)
pair, each drawn by ``synth_corpus`` from a seed derived from the workload
seed.  Strata keep the mix of cheap one-component and costly
five-component models the same from seed to seed, which is what keeps
run-to-run spreads small.
"""
from __future__ import annotations

import importlib
import json
import os
import platform
import resource
import time
import warnings
from collections import Counter, defaultdict
from dataclasses import dataclass, field

import numpy as np
import scipy
from scipy.stats.mstats import hdquantiles

from brepcodec import codec, lm, pipeline, rq, sampler, synth
from brepcodec import model as model_mod
from brepcodec.codec import CodecConfig, VocabLayout, descriptor_dim_weights
from brepcodec.lm import SamplerConfig

from tracing import CLOCK, Tracer, check_spans, layer_of

# The package re-exports the function `reconstruct` under the module's name.
reconstruct = importlib.import_module("brepcodec.reconstruct")

WORKLOADS = ("roundtrip", "encode", "generate")
LAYERS = ("synth", "model", "sampler", "rq", "codec", "assignment", "reconstruct",
          "lm", "pipeline")
OP_LAYERS = LAYERS[1:]          # synth runs only in set-up

CFG = CodecConfig()
# The acceptance recipe (tests/test_acceptance.py): 4 levels x 256
# centroids, 25 k-means iterations, descriptor dimension weights; an
# order-2 n-gram with smoothing 0.1 sampled at temperature 0.7.
CODEBOOK_DEPTH = 4
CODEBOOK_SEED = 0
KMEANS_ITERS = 25
LM_ORDER = 2
LM_SMOOTHING = 0.1
TEMPERATURE = 0.7

# Gated end-to-end metric -> the name it carries on each workload.
ALIASES = {
    "roundtrip": {"throughput_per_s": "roundtrip_models_per_s",
                  "op_ms_p50": "roundtrip_ms_p50", "op_ms_p90": "roundtrip_ms_p90"},
    "encode": {"throughput_per_s": "encode_models_per_s",
               "op_ms_p50": "tokenize_ms_p50", "op_ms_p90": "tokenize_ms_p90"},
    "generate": {"throughput_per_s": "generate_seqs_per_s",
                 "op_ms_p50": "generate_ms_p50", "op_ms_p90": "generate_ms_p90"},
}
END_TO_END_UNITS = {"setup_s": "s", "rss_mb": "MB", "throughput_per_s": "1/s",
                    "op_ms_p90": "ms", "train_codebook_s": "s"}


@dataclass(frozen=True)
class Scale:
    """Input size.  The default is the benchmark; the smoke test shrinks it."""
    components: tuple = (1, 5)      # one model per family per component count
    # Set-ups per workload.  Each brings its own corpus, so four give
    # `roundtrip` 100 distinct models a run; fewer left its median swinging
    # by a quarter between seeds.
    setups: tuple = (("roundtrip", 4), ("encode", 3), ("generate", 3))
    codebook_size: int = 256

    def setups_for(self, workload: str) -> int:
        return dict(self.setups)[workload]


@dataclass(eq=False)
class Instance:
    """What one set-up produces."""
    models: list
    codebook: object = None
    rows: int = 0
    train_s: float = 0.0
    layout: object = None
    ngram: object = None


@dataclass(eq=False)
class Run:
    """Raw measurements of one workload run."""
    workload: str
    setup_s: list = field(default_factory=list)
    train_s: list = field(default_factory=list)
    op_times: list = field(default_factory=list)      # untraced ops only
    loop_cpu_s: float = 0.0
    loop_wall_s: float = 0.0
    throughput: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    outcomes: Counter = field(default_factory=Counter)
    traced_times: list = field(default_factory=list)
    paired_times: list = field(default_factory=list)  # untraced twins of traced ops
    units: int = 0                                    # models or sequences traced
    inputs: dict = field(default_factory=dict)

    def fail(self, note: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(note)


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def make_corpus(key: tuple, scale: Scale) -> list:
    """One model per (family, component count), seeded by ``key``.

    Models come in Latin-square order: any run of five consecutive models
    holds every family once and, with all five counts in use, every
    component count once, so a run that stops part-way through the
    corpus still times a balanced mix.
    """
    rng = np.random.default_rng(list(key))
    lo, hi = scale.components
    n_fam, n_k = len(synth.FAMILIES), hi - lo + 1
    models = []
    for p in range(n_fam * n_k):
        family = synth.FAMILIES[p % n_fam]
        k = lo + (p // n_fam + p) % n_k
        spec = synth.CorpusSpec(counts={family: 1}, components=(k, k),
                                seed=int(rng.integers(2**31)))
        models.extend(m for _, m in synth.synth_corpus(spec))
    return models


def train(descs: np.ndarray, scale: Scale):
    return rq.train_codebook(descs, depth=CODEBOOK_DEPTH, size=scale.codebook_size,
                             seed=CODEBOOK_SEED, max_iter=KMEANS_ITERS,
                             dim_weights=descriptor_dim_weights(CFG.sampling))


def setup_codebook(seed: int, setup: int, scale: Scale, with_lm: bool) -> Instance:
    """Corpus, descriptors and codebook; for ``generate`` also the n-gram.

    The n-gram is fitted on the corpus plus a second corpus tokenized with
    the same codebook: how long sampled sequences run, and so how long
    they take to decode, depends on the n-gram's corpus, and 25 models
    left that spread too wide between seeds.
    """
    models = make_corpus((seed, setup), scale)
    normed = [model_mod.normalize(m)[0] for m in models]
    descs = np.concatenate([codec.model_descriptors(m, CFG.sampling) for m in normed])
    t0 = CLOCK()
    cb = train(descs, scale)
    inst = Instance(models=models, codebook=cb, rows=descs.shape[0],
                    train_s=CLOCK() - t0)
    if with_lm:
        inst.layout = VocabLayout.for_codebook(cb)
        extra = [model_mod.normalize(m)[0] for m in make_corpus((seed, setup, 1), scale)]
        seqs = [codec.tokenize(m, cb, CFG) for m in normed + extra]
        inst.ngram = lm.fit_ngram(seqs, order=LM_ORDER, smoothing=LM_SMOOTHING,
                                  vocab_size=inst.layout.vocab_size)
    return inst


def run_setups(run: Run, seed: int, scale: Scale, tracer, make) -> list:
    instances = []
    for k in range(scale.setups_for(run.workload)):
        root = tracer.begin_op("setup") if tracer else None
        t0 = CLOCK()
        try:
            instances.append(make(seed, k, scale))
        finally:
            run.setup_s.append(CLOCK() - t0)
            if root is not None:
                tracer.close(root)
    return instances


# ---------------------------------------------------------------------------
# Timing loop
# ---------------------------------------------------------------------------

class Deadline:
    """Ends a measuring loop after ``seconds`` of CPU time, or after twice
    that of wall time when the host lends the process less than half a CPU."""

    def __init__(self, run: Run, seconds: float):
        self.run, self.seconds = run, seconds
        self.cpu0, self.wall0 = CLOCK(), time.perf_counter()

    def passed(self) -> bool:
        self.run.loop_cpu_s = CLOCK() - self.cpu0
        self.run.loop_wall_s = time.perf_counter() - self.wall0
        return (self.run.loop_cpu_s >= self.seconds
                or self.run.loop_wall_s >= 2 * self.seconds)


def timed(tracer, traced: bool, fn, *args):
    """Call ``fn`` once, traced or not; returns (result, CPU seconds)."""
    root = None
    if tracer is not None:
        tracer.enabled = traced
        if traced:
            root = tracer.begin_op("op")
    t0 = CLOCK()
    try:
        result = fn(*args)
    finally:
        cpu = CLOCK() - t0
        if root is not None:
            tracer.close(root)
        if tracer is not None:
            tracer.enabled = False
    return result, cpu


def orders(tracer, i: int) -> list:
    """Untraced, an op runs once.  Traced, it runs twice, once traced and
    once not, alternating which goes first; the twins give the tracing
    overhead on identical work."""
    if tracer is None:
        return [False]
    return [False, True] if i % 2 == 0 else [True, False]


def measure(run: Run, seconds: float, tracer, op, block: int) -> None:
    """Closed loop over ``op(i)`` for ``seconds``, in whole blocks of
    ``block`` ops so that every run covers its inputs in equal shares."""
    deadline = Deadline(run, seconds)
    i = 0
    while i % block or not (i and deadline.passed()):
        for traced in orders(tracer, i):
            run.attempted += 1
            try:
                ok_note, cpu = timed(tracer, traced, op, i, traced)
            except Exception as exc:  # an op that raises is a failed op
                run.fail(f"op {i}: {type(exc).__name__}: {exc}")
                continue
            if ok_note is not None:
                run.fail(f"op {i}: {ok_note}")
            if traced:
                run.traced_times.append(cpu)
                run.units += 1
            else:
                run.op_times.append(cpu)
                if tracer is not None:
                    run.paired_times.append(cpu)
        i += 1
    if run.op_times:
        run.throughput = [len(run.op_times) / sum(run.op_times)]


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def run_roundtrip(run: Run, seed: int, seconds: float, tracer, scale: Scale) -> None:
    instances = run_setups(run, seed, scale, tracer,
                           lambda s, k, sc: setup_codebook(s, k, sc, with_lm=False))
    run.train_s = [inst.train_s for inst in instances]

    def op(i, traced):
        inst = instances[i % len(instances)]
        m = inst.models[(i // len(instances)) % len(inst.models)]
        res = pipeline.roundtrip_check(m, inst.codebook, CFG)
        return None if res.ok else "round trip failed: " + "; ".join(res.notes)

    # Op i takes set-up i % n, so a block of n x 5 ops holds five consecutive
    # Latin-square models of every set-up: all families, all component counts.
    measure(run, seconds, tracer, op, len(instances) * len(synth.FAMILIES))
    run.inputs = {"set-ups": len(instances),
                  "models per set-up": len(instances[0].models),
                  "descriptor rows per codebook": [inst.rows for inst in instances]}


def structure(normed) -> tuple:
    """Per-component vertex counts and edge multisets under canonical order."""
    _, comps = codec.canonical_order(normed)
    where = {v: (ci, li) for ci, comp in enumerate(comps) for li, v in enumerate(comp)}
    edges = [Counter() for _ in comps]
    for e in normed.edges:
        ci, a = where[e.v0]
        _, b = where[e.v1]
        edges[ci][(min(a, b), max(a, b))] += 1
    return [len(c) for c in comps], edges


def parsed_structure(records) -> tuple:
    counts = [comp.positions.shape[0] for comp in records.components]
    edges = [Counter((min(e.i, e.j), max(e.i, e.j)) for e in comp.edges)
             for comp in records.components]
    return counts, edges


def encode_job(models: list, scale: Scale, tokenize_times: list):
    """train-codebook then tokenize, as the CLI runs them on one corpus."""
    descs = [codec.model_descriptors(model_mod.normalize(m)[0], CFG.sampling)
             for m in models]
    t0 = CLOCK()
    cb = train(np.concatenate(descs), scale)
    train_s = CLOCK() - t0
    seqs = []
    for m in models:
        t1 = CLOCK()
        seqs.append(pipeline.encode_model(m, cb, CFG))
        tokenize_times.append(CLOCK() - t1)
    return cb, seqs, train_s


def run_encode(run: Run, seed: int, seconds: float, tracer, scale: Scale) -> None:
    corpora = run_setups(run, seed, scale, tracer,
                         lambda s, k, sc: make_corpus((s, k), sc))
    # One job covers every set-up's corpus, as the CLI trains one codebook
    # on all of its input models.
    models = [m for corpus in corpora for m in corpus]
    jobs = []
    deadline = Deadline(run, seconds)
    j = 0
    while j < 2 or not deadline.passed():      # two jobs at least, for a median
        for traced in orders(tracer, j):
            times = []
            (cb, seqs, train_s), cpu = timed(tracer, traced, encode_job,
                                             models, scale, times)
            jobs.append((cb, seqs))
            if traced:
                run.traced_times.append(cpu)
                run.units += len(models)
            else:
                run.op_times.extend(times)
                run.train_s.append(train_s)
                run.throughput.append(len(models) / cpu)
                if tracer is not None:
                    run.paired_times.append(cpu)
        j += 1

    # Checks run untraced and untimed: every sequence parses back with its
    # job's codebook into the source's canonical vertex counts and edges.
    wanted = [structure(model_mod.normalize(m)[0]) for m in models]
    for cb, seqs in jobs:
        for want, seq in zip(wanted, seqs):
            run.attempted += 1
            try:
                got = parsed_structure(codec.parse(seq, cb, CFG))
            except Exception as exc:  # a sequence that fails to parse fails its op
                run.fail(f"{type(exc).__name__}: {exc}")
                continue
            if got != want:
                run.fail("parsed structure differs from the source")
    run.inputs = {"set-ups": len(corpora), "models per job": len(models),
                  "jobs": len(jobs)}


def run_generate(run: Run, seed: int, seconds: float, tracer, scale: Scale) -> None:
    instances = run_setups(run, seed, scale, tracer,
                           lambda s, k, sc: setup_codebook(s, k, sc, with_lm=True))
    run.train_s = [inst.train_s for inst in instances]
    base = int(np.random.default_rng([seed, len(instances)]).integers(2**31))

    def op(i, traced):
        inst = instances[i % len(instances)]
        res = lm.sample_sequence(inst.ngram, inst.layout,
                                 SamplerConfig(seed=base + i, temperature=TEMPERATURE))
        if res.truncated:
            outcome = "truncated"
        else:
            # a grammar error here raises and fails the op
            built, rep = pipeline.decode_tokens(res.tokens, inst.codebook, CFG)
            outcome = "watertight" if built is not None and rep.success else "not watertight"
        if traced or tracer is None:
            run.outcomes[outcome] += 1
        return None

    measure(run, seconds, tracer, op, len(instances))
    run.inputs = {"set-ups": len(instances),
                  "models per set-up": f"{len(instances[0].models)} trained on, "
                                       f"as many more tokenized for the n-gram",
                  "descriptor rows per codebook": [inst.rows for inst in instances],
                  "first sampling seed": base}


RUNNERS = {"roundtrip": run_roundtrip, "encode": run_encode, "generate": run_generate}


# ---------------------------------------------------------------------------
# Tracing: where each layer is wrapped
# ---------------------------------------------------------------------------

def _note_len(key):
    def observe(span, args, result):
        span.info[key] = len(result)
    return observe


def _observe_rows(span, args, result):
    span.info["rows"] = int(np.asarray(args[0]).shape[0])


def _observe_parse(span, args, result):
    seq = args[0]
    span.info["tokens"] = len(seq.tokens if hasattr(seq, "tokens") else seq)


def _observe_sample(span, args, result):
    span.info["tokens"] = len(result.tokens) - 1          # <start> is given
    span.info["truncated"] = int(result.truncated)


def _observe_fit(span, args, result):
    span.info["planar"] = int(result.planar)


def _observe_reconstruct(span, args, result):
    built, report = result
    span.info.update(success=int(report.success), no_model=int(built is None),
                     infeasible=len(report.infeasible_vertices),
                     elevated=len(report.elevated_cost_vertices))


def install(tracer: Tracer) -> None:
    """Wrap every call into a measured layer at the name its caller uses."""
    s, c = tracer.span, tracer.count
    s(synth, "synth_corpus", "synth.synth_corpus", _note_len("models"))
    for mod in (synth, sampler, reconstruct):
        s(mod, "validate", "model.validate")
    for mod in (model_mod, pipeline):
        s(mod, "normalize", "model.normalize")
    s(pipeline, "euler_report", "model.euler_report")
    s(codec, "extract_vhp", "sampler.extract_vhp", _note_len("halfedges"))
    s(rq, "train_codebook", "rq.train_codebook", _observe_rows)
    s(codec, "rq_encode_many", "rq.rq_encode_many")
    s(codec, "rq_decode", "rq.rq_decode")
    s(codec, "model_descriptors", "codec.model_descriptors")
    for mod in (codec, pipeline):
        s(mod, "tokenize", "codec.tokenize")
        s(mod, "parse", "codec.parse", _observe_parse)
    s(pipeline, "canonical_order", "codec.canonical_order")
    c(codec, "step", "codec.step")
    c(lm, "step", "codec.step")
    c(lm, "validity_mask", "codec.validity_mask")
    s(lm, "fit_ngram", "lm.fit_ngram")
    s(lm, "sample_sequence", "lm.sample_sequence", _observe_sample)
    s(reconstruct, "solve_square", "assignment.solve_square")
    s(pipeline, "reconstruct", "reconstruct.reconstruct", _observe_reconstruct)
    s(reconstruct, "materialize_half_edges", "reconstruct.materialize_half_edges")
    s(reconstruct, "solve_next_map", "reconstruct.solve_next_map")
    s(reconstruct, "trace_loops", "reconstruct.trace_loops")
    s(reconstruct, "classify_loops", "reconstruct.classify_loops")
    s(reconstruct, "fit_face", "reconstruct.fit_face", _observe_fit)
    s(reconstruct, "attach_inner_loops", "reconstruct.attach_inner_loops")
    for name in ("roundtrip_check", "encode_model", "decode_tokens"):
        s(pipeline, name, f"pipeline.{name}")


def count_zero_depth_walks(tracer: Tracer) -> None:
    """Count every ZeroDepthWarning on the span that raised it."""
    warnings.simplefilter("always", sampler.ZeroDepthWarning)
    shown = warnings.showwarning

    def showwarning(message, category, *args, **kwargs):
        if issubclass(category, sampler.ZeroDepthWarning):
            tracer.note("zero_depth_walks")
        else:
            shown(message, category, *args, **kwargs)

    warnings.showwarning = showwarning


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def _mean(xs) -> float:
    xs = list(xs)
    return float(sum(xs) / len(xs)) if xs else 0.0


def _ratio(a, b) -> float:
    return float(a / b) if b else 0.0


def rss_mb() -> float:
    """Resident set size now."""
    with open("/proc/self/statm") as f:
        pages = int(f.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def peak_rss_mb() -> float:
    """High-water mark of the resident set over the process's life."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def op_ms_percentiles(run: Run) -> tuple:
    """p50 and p90 of the untraced ops in ms.

    Harrell-Davis estimates weight every order statistic, so they move less
    from run to run than the one or two samples np.percentile uses; they
    need two samples at least.
    """
    quantiles = hdquantiles if len(run.op_times) > 1 else np.quantile
    p50, p90 = np.asarray(quantiles(run.op_times, [0.5, 0.9])) * 1e3
    return float(p50), float(p90)


def end_to_end(run: Run) -> dict:
    return {"setup_s": float(np.median(run.setup_s)),
            "rss_mb": rss_mb(),
            "throughput_per_s": float(np.median(run.throughput)),
            "op_ms_p90": op_ms_percentiles(run)[1],
            "train_codebook_s": float(np.median(run.train_s))}


def ungated(run: Run) -> dict:
    """Printed with the end-to-end metrics but not gated: the median op
    time of ``generate`` spread by up to 0.26 (IQR / median) over ten
    seeds, and the peak resident set is the largest of many decodes."""
    return {"op_ms_p50": {"value": op_ms_percentiles(run)[0], "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"}}


def per_layer(run: Run, tracer: Tracer) -> dict:
    """Per-layer metrics of a traced run: name -> (value, unit).

    Times per call average over every call, set-up included.  Counts per op
    (``*_calls``, ``infeasible``, ``no_model``, ...) divide the totals of
    the timed ops by the number of models (or sequences) they processed.
    """
    every = defaultdict(list)
    in_ops = defaultdict(list)
    for sp in tracer.spans:
        every[sp.name].append(sp)
        if tracer.op_kinds[sp.op] == "op":
            in_ops[sp.name].append(sp)
    units = run.units

    def busy(name):
        return sum(sp.duration for sp in every[name])

    def ms(name, attr="duration"):
        return 1e3 * _mean(getattr(sp, attr) for sp in every[name])

    def total(spans, key):
        return sum(sp.info.get(key, 0) for sp in spans)

    def per_op(value):
        return _ratio(value, units)

    n_rec = len(every["reconstruct.reconstruct"])
    n_fits = len(every["reconstruct.fit_face"])
    rec_ops = in_ops["reconstruct.reconstruct"]
    step_calls, step_busy = tracer.calls.get("codec.step", [0, 0.0])
    mask_calls, _ = tracer.calls.get("codec.validity_mask", [0, 0.0])
    out = {
        "synth.ms_per_model": (1e3 * _ratio(busy("synth.synth_corpus"),
                                            total(every["synth.synth_corpus"], "models")), "ms"),
        "model.normalize_ms": (ms("model.normalize"), "ms"),
        "model.validate_ms": (ms("model.validate"), "ms"),
        "model.validate_calls": (per_op(len(in_ops["model.validate"])), "count"),
        "sampler.extract_vhp_ms": (ms("sampler.extract_vhp"), "ms"),
        "sampler.extract_vhp_calls_per_model": (per_op(len(in_ops["sampler.extract_vhp"])),
                                                "count"),
        "sampler.halfedges_per_model": (_ratio(total(every["sampler.extract_vhp"], "halfedges"),
                                               len(every["sampler.extract_vhp"])), "count"),
        "sampler.zero_depth_walks": (per_op(total(in_ops["sampler.extract_vhp"],
                                                  "zero_depth_walks")), "count"),
        "rq.train_codebook_s": (ms("rq.train_codebook") / 1e3, "s"),
        "rq.train_rows": (_ratio(total(every["rq.train_codebook"], "rows"),
                                 len(every["rq.train_codebook"])), "count"),
        "rq.encode_ms_per_model": (ms("rq.rq_encode_many"), "ms"),
        "codec.tokenize_self_ms": (ms("codec.tokenize", "self_time"), "ms"),
        "codec.parse_ms_per_seq": (ms("codec.parse"), "ms"),
        "codec.tokens_per_seq": (_ratio(total(every["codec.parse"], "tokens"),
                                        len(every["codec.parse"])), "count"),
        "codec.step_calls": (per_op(step_calls), "count"),
        "codec.step_us_per_call": (1e6 * _ratio(step_busy, step_calls), "us"),
        "codec.validity_mask_calls": (per_op(mask_calls), "count"),
        "lm.sample_ms_per_seq": (ms("lm.sample_sequence"), "ms"),
        "lm.us_per_token": (1e6 * _ratio(busy("lm.sample_sequence"),
                                         total(every["lm.sample_sequence"], "tokens")), "us"),
        "lm.truncated_frac": (_ratio(total(every["lm.sample_sequence"], "truncated"),
                                     len(every["lm.sample_sequence"])), "fraction"),
        "assignment.solve_square_calls": (per_op(len(in_ops["assignment.solve_square"])),
                                          "count"),
        "assignment.solve_square_us_per_call": (1e3 * ms("assignment.solve_square"), "us"),
        "assignment.infeasible": (per_op(sum(sp.error for sp in
                                             in_ops["assignment.solve_square"])), "count"),
        "reconstruct.materialize_ms": (ms("reconstruct.materialize_half_edges"), "ms"),
        "reconstruct.next_map_self_ms": (ms("reconstruct.solve_next_map", "self_time"), "ms"),
        "reconstruct.trace_loops_ms": (ms("reconstruct.trace_loops"), "ms"),
        "reconstruct.classify_loops_ms": (ms("reconstruct.classify_loops"), "ms"),
        "reconstruct.fit_face_ms_per_model": (1e3 * _ratio(busy("reconstruct.fit_face"), n_rec),
                                              "ms"),
        "reconstruct.fit_face_calls": (per_op(len(in_ops["reconstruct.fit_face"])), "count"),
        "reconstruct.plane_frac": (_ratio(total(every["reconstruct.fit_face"], "planar"),
                                          n_fits), "fraction"),
        "reconstruct.attach_inner_ms": (1e3 * _ratio(busy("reconstruct.attach_inner_loops"),
                                                     n_rec), "ms"),
        "reconstruct.self_ms": (ms("reconstruct.reconstruct", "self_time"), "ms"),
        "reconstruct.watertight_frac": (_ratio(total(every["reconstruct.reconstruct"], "success"),
                                               n_rec), "fraction"),
        "reconstruct.no_model": (per_op(total(rec_ops, "no_model")), "count"),
        "reconstruct.infeasible_vertices": (per_op(total(rec_ops, "infeasible")), "count"),
        "reconstruct.elevated_vertices": (per_op(total(rec_ops, "elevated")), "count"),
        "pipeline.roundtrip_check_self_ms": (ms("pipeline.roundtrip_check", "self_time"), "ms"),
    }
    layer_self = layer_self_times(tracer, "op")
    for layer in OP_LAYERS:
        out[f"{layer}.op_self_ms"] = (1e3 * per_op(layer_self.get(layer, 0.0)), "ms")
    op_wall = sum(run.traced_times)
    out["trace.coverage_frac"] = (_ratio(op_wall - layer_self.get("bench", 0.0), op_wall),
                                  "fraction")
    out["trace.overhead_frac"] = (_ratio(op_wall, sum(run.paired_times)) - 1.0, "fraction")
    out["run.op_ms_p50"] = (op_ms_percentiles(run)[0], "ms")
    out["run.peak_rss_mb"] = (peak_rss_mb(), "MB")
    return out


def layer_self_times(tracer: Tracer, kind: str) -> dict:
    """Seconds of self time per layer over ops of ``kind``; counted calls
    go to their own layer."""
    totals = defaultdict(float)
    for sp in tracer.op_spans(kind):
        totals[layer_of(sp.name)] += sp.self_time
    if kind == "op":
        for name, (_, busy) in tracer.calls.items():
            totals[layer_of(name)] += busy
    return totals


def layer_table(run: Run, tracer: Tracer) -> list[str]:
    """Self time per layer per op and per set-up, with its share."""
    ops = layer_self_times(tracer, "op")
    setups = layer_self_times(tracer, "setup")
    op_wall = sum(run.traced_times)
    setup_wall = sum(sp.duration for sp in tracer.spans if sp.name == "bench.setup")
    n_setups = max(1, tracer.op_kinds.count("setup"))
    lines = [f"{'layer':<12} {'op self ms':>11} {'share':>7} {'setup self s':>13} {'share':>7}"]
    for layer in LAYERS + ("bench",):
        lines.append(f"{layer:<12} {1e3 * _ratio(ops.get(layer, 0.0), run.units):>11.3f} "
                     f"{_ratio(ops.get(layer, 0.0), op_wall):>7.1%} "
                     f"{_ratio(setups.get(layer, 0.0), n_setups):>13.3f} "
                     f"{_ratio(setups.get(layer, 0.0), setup_wall):>7.1%}")
    return lines


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_config": blas.get("openblas configuration", ""),
            "nproc": os.cpu_count(),
            "threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")}}


# ---------------------------------------------------------------------------
# One workload, start to finish
# ---------------------------------------------------------------------------

def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 scale: Scale = Scale(), trace_path: str | None = None) -> dict:
    """Run one workload; returns the result object printed by run.py."""
    tracer = Tracer() if trace else None
    run = Run(workload=workload)
    with warnings.catch_warnings():
        if tracer is not None:
            install(tracer)
            count_zero_depth_walks(tracer)
        else:
            warnings.simplefilter("ignore", sampler.ZeroDepthWarning)
        try:
            RUNNERS[workload](run, seed, seconds, tracer, scale)
        finally:
            if tracer is not None:
                tracer.restore()
    result = {"correct": run.failed == 0, "attempted": run.attempted,
              "failed": run.failed, "metrics": {}}
    lines = [f"# inputs: {run.inputs}"]
    if run.outcomes:
        lines.append(f"# outcomes: {dict(run.outcomes)}")
    lines += [f"# failure: {note}" for note in run.failures]
    if tracer is None:
        for name, value in end_to_end(run).items():
            unit = END_TO_END_UNITS[name]
            result["metrics"][name] = {"value": value, "unit": unit}
            label = ALIASES[workload].get(name, name)
            lines.append(f"{label:<28} {value:>12.4f} {unit}")
        result["ungated"] = ungated(run)
        for name, v in result["ungated"].items():
            label = ALIASES[workload].get(name, name)
            lines.append(f"{label:<28} {v['value']:>12.4f} {v['unit']} (not gated)")
        lines.append(f"# ops timed: {len(run.op_times)}; measuring loop used "
                     f"{run.loop_cpu_s:.1f} CPU s in {run.loop_wall_s:.1f} wall s")
    else:
        problems = check_spans(tracer.spans)
        if problems:
            result["correct"] = False
            lines += [f"# span check: {p}" for p in problems[:5]]
        for name, (value, unit) in per_layer(run, tracer).items():
            result["metrics"][name] = {"value": value, "unit": unit}
            lines.append(f"{name:<40} {value:>12.4f} {unit}")
        lines += ["#"] + [f"# {line}" for line in layer_table(run, tracer)]
        if trace_path:
            write_trace(trace_path, workload, seed, seconds, run, tracer, result)
            lines.append(f"# spans written to {trace_path}")
    lines.append(f"# ops attempted {run.attempted} failed {run.failed}")
    result["lines"] = lines
    result["tracer"] = tracer
    return result


def write_trace(path, workload, seed, seconds, run, tracer, result) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    doc = {"workload": workload, "seed": seed, "seconds": seconds,
           "environment": environment(), "inputs": run.inputs,
           "metrics": result["metrics"], **tracer.as_dict()}
    with open(path, "w") as f:
        json.dump(doc, f)

