"""Command-line surface.

Exit codes: 0 success, 1 validation failure, 2 format or grammar error,
3 capacity error.  All randomness is controlled by explicit --seed flags;
identical invocations produce identical outputs.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import warnings

import numpy as np

from . import io as bio
from .codec import (
    CapacityError,
    CodecError,
    GrammarError,
    VocabLayout,
    descriptor_dim_weights,
    model_descriptors,
)
from .geometry import GeometryError
from .lm import SamplerConfig, autocomplete, fit_ngram, sample_sequence
from .metrics import (
    JSD_DEFAULT_RESOLUTION,
    MetricReport,
    POINTS_PER_CLOUD,
    chamfer,
    cov_mmd,
    jsd,
    novel_unique_valid,
    surface_sample,
)
from .model import normalize, validate
from .pipeline import canonical_token_key, decode_tokens, encode_model, roundtrip_check
from .rq import CodebookError, train_codebook
from .sampler import ZeroDepthWarning
from .synth import CorpusSpec, PlacementError, synth_corpus

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_FORMAT = 2
EXIT_CAPACITY = 3


class ValidationFailure(RuntimeError):
    pass


def _fail(kind: str, message: str, code: int) -> int:
    print(json.dumps({"error": kind, "message": message}), file=sys.stderr)
    return code


def _model_paths(args_models):
    paths = []
    for p in args_models:
        if os.path.isdir(p):
            paths.extend(sorted(
                os.path.join(p, f) for f in os.listdir(p) if f.endswith(".json")))
        else:
            paths.append(p)
    if not paths:
        raise bio.FormatError("no model files found")
    return paths


def _load_models(args_models):
    return [(p, bio.load_model(p)[0]) for p in _model_paths(args_models)]


def _load_tokens_for(path, cb):
    """A token file's sequences; FormatError when it names another codebook."""
    header, seqs = bio.load_tokens(path)
    if header.get("codebook_id") not in (None, "", cb.content_id()):
        raise bio.FormatError(f"{path}: written with codebook {header['codebook_id']}")
    return seqs


def _load_lm_and_codebook(args):
    """The n-gram, codebook and layout; FormatError if their vocabularies differ."""
    lm, layout_hash = bio.load_ngram(args.lm)
    cb = bio.load_codebook(args.codebook)
    layout = VocabLayout.for_codebook(cb)
    if layout_hash and layout_hash != layout.layout_hash():
        raise bio.FormatError("codebook does not match the model's vocabulary")
    return lm, cb, layout


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_synth(args) -> int:
    with open(args.spec) as f:
        doc = json.load(f)
    if args.seed is not None:
        doc["seed"] = args.seed
    spec = CorpusSpec(**doc)
    os.makedirs(args.out, exist_ok=True)
    for name, model in synth_corpus(spec):
        bio.save_model(model, os.path.join(args.out, f"{name}.json"))
    print(f"wrote corpus to {args.out}")
    return EXIT_OK


def cmd_validate(args) -> int:
    reports = {}
    all_ok = True
    for path, model in _load_models(args.models):
        rep = validate(model)
        reports[path] = rep
        all_ok &= rep.watertight
        print(f"{path}: watertight={rep.watertight} "
              f"defects={len(rep.defects)}")
    if args.report:
        bio.save_report(reports, args.report)
    if not all_ok:
        raise ValidationFailure("one or more models are not watertight")
    return EXIT_OK


def cmd_tokenize(args) -> int:
    cb = bio.load_codebook(args.codebook)
    seqs = [encode_model(m, cb) for _, m in _load_models(args.models)]
    bio.save_tokens(seqs, args.out)
    print(f"wrote {len(seqs)} sequences to {args.out}")
    return EXIT_OK


def cmd_train_codebook(args) -> int:
    descs = []
    for _, model in _load_models(args.inputs):
        normed, _ = normalize(model)
        descs.append(model_descriptors(normed))
    corpus = np.concatenate(descs)
    cb = train_codebook(corpus, depth=args.levels, size=args.size, seed=args.seed,
                        dim_weights=descriptor_dim_weights())
    bio.save_codebook(cb, args.out)
    print(f"trained codebook {cb.content_id()} on {corpus.shape[0]} descriptors")
    return EXIT_OK


def cmd_detokenize(args) -> int:
    cb = bio.load_codebook(args.codebook)
    seqs = _load_tokens_for(args.tokens, cb)
    os.makedirs(args.out, exist_ok=True)
    reports = {}
    failed = 0
    for i, seq in enumerate(seqs):
        try:
            model, rep = decode_tokens(seq, cb)
        except GrammarError as exc:
            raise bio.FormatError(
                f"{args.tokens}: line {i + 2}: {exc} "
                f"(expected {exc.expected}, found {exc.found})") from exc
        reports[f"seq_{i:04d}"] = rep
        if model is None or not rep.success:
            failed += 1
        if model is not None:
            bio.save_model(model, os.path.join(args.out, f"model_{i:04d}.json"))
    if args.report:
        bio.save_report(reports, args.report)
    print(f"decoded {len(seqs) - failed}/{len(seqs)} sequences into {args.out}")
    if failed:
        raise ValidationFailure(f"{failed} sequences did not rebuild watertight")
    return EXIT_OK


def cmd_roundtrip(args) -> int:
    cb = bio.load_codebook(args.codebook) if args.codebook else None
    failures = 0
    results = {}
    for path, model in _load_models(args.models):
        res = roundtrip_check(model, cb)
        results[path] = res
        status = "ok" if res.ok else f"FAIL ({'; '.join(res.notes)})"
        print(f"{path}: {status} vertex_err={res.max_vertex_error:.2e}")
        failures += not res.ok
    if args.report:
        bio.save_report(results, args.report)
    if failures:
        raise ValidationFailure(f"{failures} models failed the round trip")
    return EXIT_OK


def cmd_fit_lm(args) -> int:
    header, seqs = bio.load_tokens(args.tokens)
    if not seqs:
        raise bio.FormatError(f"{args.tokens}: token file holds no sequences")
    lm = fit_ngram(seqs, order=args.order, smoothing=args.smoothing)
    bio.save_ngram(lm, args.out, layout_hash=header.get("layout_hash", ""))
    print(f"fitted order-{args.order} model on {len(seqs)} sequences "
          f"({len(lm.counts)} contexts)")
    return EXIT_OK


def _at_least_one(**counts) -> None:
    """Refuse a count option below 1 up front, naming it."""
    for name, n in counts.items():
        if n < 1:
            raise ValueError(f"--{name} must be at least 1, not {n}")


def cmd_generate(args) -> int:
    _at_least_one(count=args.count)
    lm, cb, layout = _load_lm_and_codebook(args)
    # configs first: a refused count or temperature leaves no --out directory
    cfgs = [SamplerConfig(seed=args.seed + i, temperature=args.temperature)
            for i in range(args.count)]
    os.makedirs(args.out, exist_ok=True)
    log = []
    sequences = []
    built = 0
    for i, cfg in enumerate(cfgs):
        res = sample_sequence(lm, layout, cfg)
        sequences.append(res.tokens)
        entry = {"index": i, "seed": cfg.seed, "length": len(res.tokens),
                 "truncated": res.truncated, "parsed": False, "watertight": False}
        if res.parseable and not res.truncated:
            model, rep = decode_tokens(res.tokens, cb)
            entry["parsed"] = True
            entry["watertight"] = bool(rep.success)
            if model is not None and rep.success:
                bio.save_model(model, os.path.join(args.out, f"gen_{i:04d}.json"))
                built += 1
        log.append(entry)
    bio.save_tokens(sequences, os.path.join(args.out, "sequences.tokens"),
                    layout_hash=layout.layout_hash(),
                    codebook_id=cb.content_id())
    bio.save_report(log, os.path.join(args.out, "sampling_log.json"))
    print(f"generated {args.count} sequences, {built} watertight models, "
          f"into {args.out}")
    return EXIT_OK


def cmd_autocomplete(args) -> int:
    lm, cb, layout = _load_lm_and_codebook(args)
    seqs = _load_tokens_for(args.prefix, cb)
    if not seqs:
        raise bio.FormatError("prefix token file holds no sequences")
    cfgs = [SamplerConfig(seed=args.seed + i, temperature=args.temperature)
            for i in range(len(seqs))]
    os.makedirs(args.out, exist_ok=True)
    outputs = []
    for i, (seq, cfg) in enumerate(zip(seqs, cfgs)):
        res = autocomplete(seq, lm, layout, cfg)
        outputs.append(res.tokens)
        if res.parseable and not res.truncated:
            model, rep = decode_tokens(res.tokens, cb)
            if model is not None:
                bio.save_model(model, os.path.join(args.out, f"completed_{i:04d}.json"))
    bio.save_tokens(outputs, os.path.join(args.out, "completed.tokens"),
                    layout_hash=layout.layout_hash(), codebook_id=cb.content_id())
    print(f"completed {len(outputs)} prefixes into {args.out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    _at_least_one(points=args.points, voxels=args.voxels)
    gen = _load_models([args.gen])
    ref = _load_models([args.ref])
    # a generated model that `validate` refuses counts against Valid only
    sampled = [i for i, (_, m) in enumerate(gen) if validate(m).watertight]
    if not sampled:
        raise ValidationFailure(f"none of the {len(gen)} --gen models is valid")
    rng_base = args.seed
    gen_clouds = []
    ref_clouds = []
    for i in sampled:
        normed, _ = normalize(gen[i][1])
        gen_clouds.append(surface_sample(normed, args.points, seed=rng_base + i))
    for i, (_, m) in enumerate(ref):
        normed, _ = normalize(m)
        ref_clouds.append(surface_sample(normed, args.points, seed=rng_base + 10_000 + i))
    coverage, mmd = cov_mmd(gen_clouds, ref_clouds)
    report = MetricReport(coverage=coverage, mmd=mmd,
                          jsd=jsd(gen_clouds, ref_clouds, args.voxels),
                          n_generated=len(gen), n_reference=len(ref),
                          points_per_cloud=args.points,
                          voxel_resolution=args.voxels, seed=args.seed)
    if len(sampled) < len(gen):
        report.notes.append(f"{len(gen) - len(sampled)} --gen models refused by validate: "
                            f"counted against Valid, left out of COV/MMD/JSD and --csv")
    if args.csv:
        rows = []
        for (path, m), cloud in zip((gen[i] for i in sampled), gen_clouds):
            nearest = min(chamfer(cloud, r) for r in ref_clouds)
            rows.append({"model": os.path.basename(path),
                         "vertices": m.num_vertices, "edges": len(m.edges),
                         "faces": len(m.faces),
                         "nearest_ref_chamfer": f"{nearest:.8g}"})
        bio.save_table(rows, args.csv,
                       ["model", "vertices", "edges", "faces",
                        "nearest_ref_chamfer"])
    if args.codebook:
        cb = bio.load_codebook(args.codebook)
        train_keys = set()
        if args.train_tokens:
            _, train_seqs = bio.load_tokens(args.train_tokens)
            train_keys = {tuple(s.tokens) for s in train_seqs}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ZeroDepthWarning)
            novel, unique, valid = novel_unique_valid(
                [m for _, m in gen], train_keys,
                canonical_key=lambda m: canonical_token_key(m, cb))
        if caught:
            report.notes.append(
                f"{len(caught)} zero-depth sampling warnings during "
                f"canonical re-tokenization")
        if not args.train_tokens:
            novel = float("nan")
            report.notes.append("novel not computed: no --train-tokens")
        report.novel, report.unique, report.valid = novel, unique, valid
    else:
        _, _, valid = novel_unique_valid([m for _, m in gen], set(),
                                         canonical_key=None)
        report.valid = valid
        report.notes.append("novel/unique not computed: no --codebook")
    bio.save_report(report, args.report)
    print(f"COV={report.coverage:.3f} MMD={report.mmd:.5f} JSD={report.jsd:.4f} "
          f"Valid={report.valid:.3f}")
    return EXIT_OK


def cmd_export_obj(args) -> int:
    _at_least_one(resolution=args.resolution)
    model, _ = bio.load_model(args.model)
    bio.export_obj(model, args.out, resolution=args.resolution)
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_export_vhp_debug(args) -> int:
    model, _ = bio.load_model(args.model)
    normed, _ = normalize(model)
    bio.export_vhp_debug(normed, args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="brepcodec",
                                description="B-rep <-> token-sequence codec")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("synth", help="generate a synthetic corpus")
    s.add_argument("--spec", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--seed", type=int, default=None,
                   help="override the seed in the spec file")
    s.set_defaults(func=cmd_synth)

    s = sub.add_parser("validate", help="structural validation")
    s.add_argument("models", nargs="+")
    s.add_argument("--report")
    s.set_defaults(func=cmd_validate)

    s = sub.add_parser("tokenize", help="models to token sequences")
    s.add_argument("models", nargs="+")
    s.add_argument("--codebook", required=True)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_tokenize)

    s = sub.add_parser("train-codebook", help="stacked k-means codebook")
    s.add_argument("inputs", nargs="+", help="model files or directories")
    s.add_argument("--levels", type=int, default=4)
    s.add_argument("--size", type=int, default=256)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_train_codebook)

    s = sub.add_parser("detokenize", help="token sequences to models")
    s.add_argument("tokens")
    s.add_argument("--codebook", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--report")
    s.set_defaults(func=cmd_detokenize)

    s = sub.add_parser("roundtrip", help="encode/decode/compare models")
    s.add_argument("models", nargs="+")
    s.add_argument("--codebook")
    s.add_argument("--report")
    s.set_defaults(func=cmd_roundtrip)

    s = sub.add_parser("fit-lm", help="fit the n-gram sequence model")
    s.add_argument("tokens")
    s.add_argument("--order", type=int, default=4)
    s.add_argument("--smoothing", type=float, default=0.1)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_fit_lm)

    s = sub.add_parser("generate", help="sample sequences and rebuild models")
    s.add_argument("--lm", required=True)
    s.add_argument("--codebook", required=True)
    s.add_argument("-n", "--count", type=int, default=10)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--temperature", type=float, default=0.7)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_generate)

    s = sub.add_parser("autocomplete", help="continue prefixes at component "
                                            "boundaries")
    s.add_argument("--lm", required=True)
    s.add_argument("--codebook", required=True)
    s.add_argument("--prefix", required=True, help="token file of prefixes")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--temperature", type=float, default=0.7)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_autocomplete)

    s = sub.add_parser("eval", help="distribution and CAD metrics")
    s.add_argument("--gen", required=True)
    s.add_argument("--ref", required=True)
    s.add_argument("--report", required=True)
    s.add_argument("--points", type=int, default=POINTS_PER_CLOUD)
    s.add_argument("--voxels", type=int, default=JSD_DEFAULT_RESOLUTION)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--codebook")
    s.add_argument("--train-tokens")
    s.add_argument("--csv", help="per-model table for histogram plotting")
    s.set_defaults(func=cmd_eval)

    s = sub.add_parser("export-obj", help="tessellated OBJ for viewing")
    s.add_argument("model")
    s.add_argument("--out", required=True)
    s.add_argument("--resolution", type=int, default=32)
    s.set_defaults(func=cmd_export_obj)

    s = sub.add_parser("export-vhp-debug", help="Voronoi cells and samples")
    s.add_argument("model")
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_export_vhp_debug)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationFailure as exc:
        return _fail("validation", str(exc), EXIT_VALIDATION)
    except CapacityError as exc:
        return _fail("capacity", str(exc), EXIT_CAPACITY)
    except PlacementError as exc:
        return _fail("capacity", str(exc), EXIT_CAPACITY)
    except (bio.FormatError, GrammarError, CodecError, CodebookError,
            json.JSONDecodeError) as exc:
        return _fail("format", str(exc), EXIT_FORMAT)
    except (GeometryError, ValueError) as exc:
        return _fail("validation", str(exc), EXIT_VALIDATION)
    except OSError as exc:
        return _fail("io", str(exc), EXIT_FORMAT)


if __name__ == "__main__":
    sys.exit(main())
