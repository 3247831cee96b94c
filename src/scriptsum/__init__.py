"""Structure-aware source-code summarization.

The pipeline: parse MiniLang into an AST, derive structural relative
positions (tree shortest-path distances, normalized distance weights,
clipped buckets, and a multi-view adjacency mask), and feed them to an
encoder-decoder transformer whose encoder stacks relation-distilled gating
layers and structural relative-position attention layers. Training,
metrics (BLEU-4, ROUGE-L, METEOR), and a CLI round out the package.
"""

from .astcore import (
    Ast,
    AstNode,
    TokenAlignment,
    ast_from_json,
    ast_to_json,
    leaf_tokens,
    load_ast_json,
    sbt_sequence,
    split_identifier,
)
from .checkpoint import load_checkpoint, save_checkpoint
from .data import (
    Batch,
    EncodedExample,
    Example,
    Vocabulary,
    build_vocab,
    encode_examples,
    example_from_record,
    load_dataset,
    make_batches,
)
from .errors import (
    ArtifactMismatchError,
    BucketError,
    ConfigError,
    EmptyCorpusError,
    FormatError,
    MiniLangSyntaxError,
    NumericsError,
    ShapeError,
    StateError,
    TreeError,
)
from .manifest import RunManifest, load_manifest
from .metrics import (
    BucketSpec,
    CorpusReport,
    EvalPair,
    bleu4,
    corpus_report,
    meteor,
    rouge_l,
)
from .minilang import parse_minilang
from .model import (
    ModelConfig,
    ScriptModel,
    ablation_layer_plan,
    load_model_sidecar,
    save_model_sidecar,
)
from .structure import (
    StructuralEncodings,
    bucketize,
    encode_structure,
    floyd_apsp,
    multiview,
    normalize,
    sequential_relpos,
)
from .tensor import Tensor, backward, grad_check, no_grad
from .training import TrainConfig, TrainResult, evaluate_bleu, evaluate_loss, train

__version__ = "0.1.0"

__all__ = [
    "Ast",
    "AstNode",
    "TokenAlignment",
    "ast_from_json",
    "ast_to_json",
    "leaf_tokens",
    "load_ast_json",
    "sbt_sequence",
    "split_identifier",
    "parse_minilang",
    "StructuralEncodings",
    "floyd_apsp",
    "normalize",
    "bucketize",
    "multiview",
    "sequential_relpos",
    "encode_structure",
    "Tensor",
    "backward",
    "grad_check",
    "no_grad",
    "ModelConfig",
    "ScriptModel",
    "ablation_layer_plan",
    "save_model_sidecar",
    "load_model_sidecar",
    "save_checkpoint",
    "load_checkpoint",
    "Example",
    "EncodedExample",
    "Batch",
    "Vocabulary",
    "build_vocab",
    "example_from_record",
    "load_dataset",
    "encode_examples",
    "make_batches",
    "TrainConfig",
    "TrainResult",
    "train",
    "evaluate_loss",
    "evaluate_bleu",
    "EvalPair",
    "BucketSpec",
    "CorpusReport",
    "bleu4",
    "rouge_l",
    "meteor",
    "corpus_report",
    "RunManifest",
    "load_manifest",
    "MiniLangSyntaxError",
    "FormatError",
    "TreeError",
    "ConfigError",
    "ShapeError",
    "NumericsError",
    "StateError",
    "EmptyCorpusError",
    "BucketError",
    "ArtifactMismatchError",
    "__version__",
]
