"""brepcodec: a bidirectional codec between B-rep solids and token sequences.

The package is organized around the pipeline

    synthesize -> validate -> sample half-patches -> tokenize
    -> parse -> reconstruct -> evaluate

with `pipeline.roundtrip_check` tying the whole loop together.  The
half-patch step, `extract_vhp`, gives one descriptor matrix per model:
row ``h`` packs half-edge ``h``'s Voronoi half-patch, successor samples
and inner/outer label in the layout `sampler` defines.
"""

from .codec import (
    CodecConfig,
    TokenSequence,
    VocabLayout,
    canonical_order,
    dequantize_coord,
    model_descriptors,
    parse,
    quantize_coord,
    tokenize,
    validity_mask,
)
from .lm import NGramModel, SamplerConfig, autocomplete, fit_ngram, sample_sequence
from .metrics import chamfer, cov_mmd, curve_error, jsd, novel_unique_valid, surface_sample
from .model import (
    BrepModel,
    ModelBuilder,
    TransformRecord,
    ValidationReport,
    connected_components,
    euler_report,
    normalize,
    validate,
)
from .pipeline import decode_tokens, encode_model, lossless_codebook, roundtrip_check
from .rq import Codebook, rq_decode, rq_encode, train_codebook
from .sampler import (
    SamplingConfig,
    extract_vhp,
    voronoi_assign,
)
from .synth import CorpusSpec, synth_corpus

__all__ = [
    "BrepModel",
    "Codebook",
    "CodecConfig",
    "CorpusSpec",
    "ModelBuilder",
    "NGramModel",
    "SamplerConfig",
    "SamplingConfig",
    "TokenSequence",
    "TransformRecord",
    "ValidationReport",
    "VocabLayout",
    "autocomplete",
    "canonical_order",
    "chamfer",
    "connected_components",
    "cov_mmd",
    "curve_error",
    "decode_tokens",
    "dequantize_coord",
    "encode_model",
    "euler_report",
    "extract_vhp",
    "fit_ngram",
    "jsd",
    "lossless_codebook",
    "model_descriptors",
    "normalize",
    "novel_unique_valid",
    "parse",
    "quantize_coord",
    "roundtrip_check",
    "rq_decode",
    "rq_encode",
    "sample_sequence",
    "surface_sample",
    "synth_corpus",
    "tokenize",
    "train_codebook",
    "validate",
    "validity_mask",
    "voronoi_assign",
]

__version__ = "0.1.0"
