"""Structure-aware encoder-decoder transformer for code summarization.

The encoder stacks modules of two layers each, and every layer is one
function, `encoder_layer`, a relative self-attention block plus FFN whose
tag says what it adds. An RDW layer first gates a reciprocal-distance mix
of the activations into its input; an SRPEi layer modulates its attention
by the multi-view relation matrix; a PLAIN layer adds neither. Every layer
adds clipped sequential embeddings to keys and values, and the layers that
srpe_placement covers add clipped tree-distance embeddings too (by default
SRPEi). Each module outputs the position-wise sum of its two layers'
outputs. The decoder is a masked transformer with clipped sequential
relative positions and cross-attention; its output projection is tied to
the target embedding.

Every sublayer, the encoder's attention and FFN blocks and the decoder's
self-attention, cross-attention and FFN blocks, goes through one rule,
`_residual`: LayerNorm(x + Dropout(sublayer(x))).

Attention runs all heads in one pass, with heads as an axis of the scores.
Each attention's q, k and v are one (d_model, d_model) parameter apiece,
every head's weights side by side in a column block, so a projection is
one matmul. Between the projections and the output affine, everything is one
tensor.attention op with one hand-written backward: QK^T, each relative
table's score term, the scale, the gate or mask, softmax, dropout, alpha V
and each table's value term. Each relative-position table is shared by the
heads, and its terms never gather a row per query-key pair: the scores
pick from the queries times the table, and the values sum the attention
weights per table row, then multiply by the table.

Decoding is incremental. `decode` without a cache is the teacher-forced
pass, an autodiff graph over every position of one sequence at once,
which training differentiates. With a DecoderCache it is one inference
step, `_step`, on plain arrays, recording no graph. The cache carries each
decoder layer's cross-attention keys and values of the source, computed
once, and its self-attention keys and values of the positions decoded so
far; a step runs new positions against the cache and appends theirs.
Under the causal mask the keys, values and relative offsets of earlier
positions never change, so in exact arithmetic the cached steps equal a
full pass over the prefix; the full pass multiplies every position's rows
at once, so in float64 their logits agree within 1e-12, not bit for bit.
A step's arithmetic is that of the same step built from autodiff ops
(graph_decode_step in tests/oracles.py), expression for expression, and
its logits are that graph's bits. A step builds the causal-mask and
sequential-offset rows of its new positions only, and a single new
position needs no mask.

Beam search decodes several sources at once: the live beams of every
unfinished source are the rows of one batch, one decoder call per step.
Each source's cross-attention keys and values are padded to the longest
source's, and a per-source NEG_INF mask hides the padding; a source leaves
the rows when it finishes. Each source ranks its own beam x vocabulary
candidates as one array, and the cache's rows are gathered by parent beam
unless every row stays in place, as in each greedy step of one source.
`summarize_many`, which every inference caller uses, decodes its sources
in input order, DECODE_CHUNK at a time; `beam_search` and `summarize` are
the one-source case, whose every step is computed exactly as a lone
source's.

Every parameter is declared once, in `param_schema`, which is also the
checkpoint format: it names each head's q, k and v block on its own
("{prefix}.q{h}"). The constructor draws it in order, each head's block
straight into its columns of the joined parameter; state_dict splits the
joined parameters back into the schema's names, and loading checks names
and shapes against the schema, without drawing anything, before joining.

All math is float64. Every forward pass runs a group of examples as one
graph, their source rows and decoder-input rows end to end with offsets
and no padding; one example is a group of one. Training, the validation
loss and summarize_many's encoding group examples by one rule,
example_groups. Every product, every sum over rows and each example's
attention run per example inside their op (see tensor), and the tied
target embedding adds each example's embedding gradient, then its
projection's, so every output, loss and gradient has the bits of a group
of one, and training is bit-reproducible for a fixed seed. A row's bits
in a decoder step can depend on how many rows share the step, so a
decoded summary is reproducible for the same sources in the same order.
"""

from __future__ import annotations

import math
import re
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields
from itertools import accumulate
from typing import Iterable, Sequence

import numpy as np

from .errors import ArtifactMismatchError, ConfigError, FormatError, NumericsError, ShapeError
from .errors import read_json_object, write_json
from .data import MAX_SOURCE_TOKENS
from .structure import DEFAULT_DISTANCE_CLIP, StructuralEncodings, sequential_relpos
from .tensor import (
    LAYERNORM_EPS,
    NEG_INF,
    Tensor,
    _attend,
    _check_ids,
    _layernorm_rows,
    add,
    attention,
    block_matmul,
    cross_entropy,
    dropout,
    embed,
    layernorm,
    matmul,
    no_grad,
    relu,
    reshape,
    scale,
    sigmoid,
    tied_embedding,
)

LAYER_TAGS = ("RDW", "SRPEi", "PLAIN")
# sources whose beams share each decoder step in summarize_many; it bounds
# the padded cross-attention keys and values a long input list can hold
DECODE_CHUNK = 32
MASK_MODES = ("multiply", "neg_inf")
# each srpe_placement -> the layer tags whose attention adds the structural tables
STRUCTURAL_TAGS = {"SRPEi_only": ("SRPEi",), "RDW_only": ("RDW",), "all": ("RDW", "SRPEi")}
SRPE_PLACEMENTS = tuple(STRUCTURAL_TAGS)
# param_schema's name of one head's block of an attention's q, k or v
_HEAD_NAME = re.compile(r"(.+\.[qkv])(\d+)")
# the most bytes one numpy array can hold
_MAX_ARRAY_BYTES = int(np.iinfo(np.intp).max)


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters; defaults follow the full-scale setup
    (3 encoder modules = 6 encoder layers, 6 decoder layers, width 512)."""

    src_vocab_size: int
    tgt_vocab_size: int
    d_model: int = 512
    n_heads: int = 8
    n_script_modules: int = 3
    n_decoder_layers: int = 6
    ffn_dim: int = 2048
    dropout_p: float = 0.2
    l: int = DEFAULT_DISTANCE_CLIP
    k: int = 32
    mask_mode: str = "multiply"
    layer_plan: tuple[str, ...] = ()
    srpe_placement: str = "SRPEi_only"
    pad_id: int = 0
    bos_id: int = 1
    eos_id: int = 2

    def __post_init__(self):
        if self.d_model <= 0 or self.n_heads <= 0 or self.d_model % self.n_heads != 0:
            raise ConfigError(
                f"d_model {self.d_model} must be a positive multiple of n_heads {self.n_heads}"
            )
        if self.src_vocab_size < 1 or self.tgt_vocab_size < 1:
            raise ConfigError("vocabulary sizes must be positive")
        if self.n_script_modules < 1 or self.n_decoder_layers < 1:
            raise ConfigError("layer counts must be positive")
        if self.ffn_dim < 1:
            raise ConfigError("ffn_dim must be positive")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ConfigError(f"dropout_p must be in [0, 1), got {self.dropout_p!r}")
        if self.l < 1 or self.k < 1:
            raise ConfigError("clip thresholds l and k must be >= 1")
        # each setting's largest parameter, and every layer's (d, d) weights together, fit one numpy array
        d, dh, layers = self.d_model, self.d_head, self.n_encoder_layers + self.n_decoder_layers
        for name, shape in (("d_model", (d, d)), ("src_vocab_size", (self.src_vocab_size, d)),
                            ("tgt_vocab_size", (self.tgt_vocab_size, d)), ("ffn_dim", (self.ffn_dim, d)),
                            ("k", (2 * self.k + 1, dh)), ("l", (self.l + 1, dh)),
                            ("n_script_modules and n_decoder_layers", (layers, d, d))):
            if math.prod(shape) * 8 > _MAX_ARRAY_BYTES:
                raise ConfigError(f"{name} too large: a {shape} array is more than numpy can allocate")
        if self.mask_mode not in MASK_MODES:
            raise ConfigError(f"mask_mode must be one of {MASK_MODES}, got {self.mask_mode!r}")
        if self.srpe_placement not in SRPE_PLACEMENTS:
            raise ConfigError(
                f"srpe_placement must be one of {SRPE_PLACEMENTS}, got {self.srpe_placement!r}"
            )
        if not self.layer_plan:
            object.__setattr__(
                self, "layer_plan", ("RDW", "SRPEi") * self.n_script_modules
            )
        else:
            object.__setattr__(self, "layer_plan", tuple(self.layer_plan))
        if len(self.layer_plan) != 2 * self.n_script_modules:
            raise ConfigError(
                f"layer_plan length {len(self.layer_plan)} != 2 * {self.n_script_modules}"
            )
        for tag in self.layer_plan:
            if tag not in LAYER_TAGS:
                raise ConfigError(f"unknown layer tag {tag!r}; valid: {LAYER_TAGS}")

    @property
    def d_head(self) -> int:
        return self.d_model // self.n_heads

    @property
    def n_encoder_layers(self) -> int:
        return 2 * self.n_script_modules

    def to_dict(self) -> dict:
        return dict(asdict(self), layer_plan=list(self.layer_plan))

    @classmethod
    def from_dict(cls, obj: dict) -> "ModelConfig":
        if not isinstance(obj, dict):
            raise FormatError("model config must be a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = set(obj) - known
        if unknown:
            raise FormatError(f"unknown model config keys: {sorted(unknown)}")
        for f in fields(cls):
            value = obj.get(f.name, 0)
            if f.type == "int" and (isinstance(value, bool) or not isinstance(value, int)):
                raise FormatError(f"model config {f.name!r} must be an integer, got {value!r}")
        plan = obj.get("layer_plan", [])
        if not (isinstance(plan, list) and all(isinstance(tag, str) for tag in plan)):
            raise FormatError(f"model config 'layer_plan' must be a list of strings, got {plan!r}")
        try:
            return cls(**dict(obj, layer_plan=tuple(plan)))
        except TypeError as exc:
            raise FormatError(f"invalid model config: {exc}") from exc


@dataclass
class DecoderCache:
    """Keys and values that cached decoding steps reuse, for one source or
    several decoded together; every one is a plain float64 array.

    The cache's rows are `beams` sequences; with S sources, row b * S + s
    is beam b of the source in group s, so each source has beams // S rows.
    cross holds each decoder layer's cross-attention keys and values of the
    sources, (n_max, S * heads, d_head) arrays, source-major on the middle
    axis, made by the first step. A source shorter than the longest has
    zero keys and values past its end, and cross_mask, (S, n_max), puts
    NEG_INF on them; it is None when no source is padded.
    sources holds the caller's index of the source in each group, which a
    NumericsError names. self_kv holds each layer's self-attention keys and
    values of every target position decoded so far, (positions, beams *
    heads, d_head) arrays, row-major on the middle axis; each step appends
    its positions. Under the causal mask an earlier position's keys, values
    and relative offsets never change, so reusing them is exact.
    """

    cross: list[tuple[np.ndarray, np.ndarray]] = field(default_factory=list)
    cross_mask: np.ndarray | None = None
    sources: list[int] = field(default_factory=lambda: [0])
    self_kv: list[tuple[np.ndarray, np.ndarray]] = field(default_factory=list)
    beams: int = 0

    @property
    def length(self) -> int:
        """Target positions decoded so far."""
        return self.self_kv[0][0].shape[0] if self.self_kv else 0

    def select(self, rows: list[int], sources: list[int] | None = None) -> None:
        """Keep the given rows, in that order; a row may be kept more than
        once. sources, if given, keeps those groups' cross-attention keys
        and values, in that order, and the rows must be laid out over them.
        Keeping every row and source in place, as each greedy step of a
        single source does, copies nothing."""
        if sources is not None and sources != list(range(len(self.sources))):
            count = len(self.sources)
            self.cross = [tuple(_keep_groups(t, sources, count) for t in kv) for kv in self.cross]
            if self.cross_mask is not None:
                self.cross_mask = self.cross_mask[sources]
            self.sources = [self.sources[j] for j in sources]
        if rows == list(range(self.beams)):
            return
        self.self_kv = [tuple(_keep_groups(t, rows, self.beams) for t in kv) for kv in self.self_kv]
        self.beams = len(rows)


def _keep_groups(a: np.ndarray, keep: list[int], count: int) -> np.ndarray:
    """The given groups of a's middle axis, which holds count equal groups.
    np.take writes them in order; indexing with [:, keep] would put the
    picked axis first in memory, and the reshape would copy again."""
    n, width, dh = a.shape
    kept = np.take(a.reshape(n, count, width // count, dh), keep, axis=1)
    return kept.reshape(n, len(keep) * (width // count), dh)


def ablation_layer_plan(n_script_modules: int, drop: str | None) -> tuple[str, ...]:
    """Layer plan for the standard ablations: drop='rdw' replaces RDW
    layers with PLAIN, drop='srpei' replaces SRPEi layers, None is full."""
    plans = {
        None: ("RDW", "SRPEi"),
        "rdw": ("PLAIN", "SRPEi"),
        "srpei": ("RDW", "PLAIN"),
    }
    if drop not in plans:
        raise ConfigError(f"unknown ablation {drop!r}; valid: {list(plans)}")
    return plans[drop] * n_script_modules


def param_schema(config: ModelConfig) -> dict[str, tuple[tuple[int, ...], str]]:
    """Every parameter of a configuration, in draw order: name -> (shape,
    init). init is "glorot" (uniform), "embedding" (normal, std 1/sqrt(d)),
    "table" (normal, std 0.02), "zeros" or "ones"; see _draw."""
    d, dh, f = config.d_model, config.d_head, config.ffn_dim
    seq_rows, str_rows = 2 * config.k + 1, config.l + 1

    def attention(p: str) -> dict:
        heads = {f"{p}.{kind}{h}": ((d, dh), "glorot") for h in range(config.n_heads) for kind in "qkv"}
        return heads | {f"{p}.out_w": ((d, d), "glorot"), f"{p}.out_b": ((d,), "zeros")}

    def tables(p: str, rows: int) -> dict:  # relative-position tables, shared by the heads
        return {f"{p}_k": ((rows, dh), "table"), f"{p}_v": ((rows, dh), "table")}

    def ffn(p: str) -> dict:
        return {f"{p}.w1": ((d, f), "glorot"), f"{p}.b1": ((f,), "zeros"),
                f"{p}.w2": ((f, d), "glorot"), f"{p}.b2": ((d,), "zeros")}

    def layernorms(*names: str) -> dict:
        return {f"{n}_{part}": ((d,), init) for n in names for part, init in (("g", "ones"), ("b", "zeros"))}

    schema = {
        "src_embed": ((config.src_vocab_size, d), "embedding"),
        "tgt_embed": ((config.tgt_vocab_size, d), "embedding"),
        "out_bias": ((config.tgt_vocab_size,), "zeros"),
    }
    for ly, tag in enumerate(config.layer_plan):
        base = f"enc{ly}"
        if tag == "RDW":
            for fc in ("fc1", "fc2"):
                schema |= {f"{base}.{fc}_w": ((d, d), "glorot"), f"{base}.{fc}_b": ((d,), "zeros")}
        schema |= attention(f"{base}.attn") | tables(f"{base}.seq", seq_rows)
        if tag in STRUCTURAL_TAGS[config.srpe_placement]:
            schema |= tables(f"{base}.str", str_rows)
        schema |= ffn(f"{base}.ffn") | layernorms(f"{base}.ln1", f"{base}.ln2")
    schema |= layernorms("enc_final")
    for ly in range(config.n_decoder_layers):
        base = f"dec{ly}"
        schema |= attention(f"{base}.self") | tables(f"{base}.seq", seq_rows) | attention(f"{base}.cross")
        schema |= ffn(f"{base}.ffn") | layernorms(f"{base}.ln1", f"{base}.ln2", f"{base}.ln3")
    return schema


def join_heads(config: ModelConfig, arrays: Iterable[tuple[str, np.ndarray]]) -> dict[str, np.ndarray]:
    """The model's arrays from (param_schema name, array) pairs, taken one
    at a time: each head's "{prefix}.q{h}" (likewise k and v) is written
    into columns h * d_head to (h + 1) * d_head of one "{prefix}.q", made
    at its first head; every other array is kept as it is."""
    out: dict[str, np.ndarray] = {}
    for name, arr in arrays:
        key, cols = _slot(name, config.d_head)
        if cols is None:
            out[key] = arr
        else:
            if key not in out:
                out[key] = np.empty((arr.shape[0], config.d_model))
            out[key][:, cols] = arr
    return out


def split_heads(config: ModelConfig, arrays: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """join_heads reversed: param_schema's arrays as views of the model's."""
    out = {}
    for name in param_schema(config):
        key, cols = _slot(name, config.d_head)
        out[name] = arrays[key] if cols is None else arrays[key][:, cols]
    return out


def _slot(name: str, d_head: int) -> tuple[str, slice | None]:
    """The model parameter holding param_schema's name, and the columns a
    head's block takes in it (None for a whole parameter)."""
    head = _HEAD_NAME.fullmatch(name)
    if head is None:
        return name, None
    h = int(head[2])
    return head[1], slice(h * d_head, (h + 1) * d_head)


def _draw(rng: np.random.Generator, shape: tuple[int, ...], init: str) -> np.ndarray:
    """One initial parameter array; each random init takes one draw."""
    if init == "glorot":
        limit = math.sqrt(6.0 / sum(shape))
        return rng.uniform(-limit, limit, size=shape)
    if init == "embedding":
        return rng.normal(0.0, shape[1] ** -0.5, size=shape)
    if init == "table":
        return rng.normal(0.0, 0.02, size=shape)
    return np.ones(shape) if init == "ones" else np.zeros(shape)


class ScriptModel:
    """The full network: parameters, forward passes of a group of examples
    (one example is a group of one), decoding."""

    def __init__(self, config: ModelConfig, seed: int = 0):
        """Draw param_schema(config) in order from one generator seeded by
        seed; each head's block goes into its joined parameter as drawn."""
        rng = np.random.default_rng(seed)
        self.config = config
        drawn = ((name, _draw(rng, shape, init)) for name, (shape, init) in param_schema(config).items())
        self.params = {name: Tensor(arr, requires_grad=True) for name, arr in join_heads(config, drawn).items()}

    @classmethod
    def from_state_dict(cls, config: ModelConfig, state: dict[str, np.ndarray]) -> "ScriptModel":
        """A model holding state's arrays, drawing none; state is checked as
        load_state_dict checks it before any parameter is made."""
        model = cls.__new__(cls)
        model.config = config
        model.load_state_dict(state)
        return model

    # -- state ------------------------------------------------------------

    def state_dict(self) -> dict[str, np.ndarray]:
        """A copy of every parameter, by param_schema name."""
        arrays = split_heads(self.config, {name: t.data for name, t in self.params.items()})
        return {name: arr.copy() for name, arr in arrays.items()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Replace every parameter. Names and shapes must match
        param_schema(self.config) (ArtifactMismatchError) and every value
        must be finite (NumericsError, naming the first parameter that is
        not); on either error no parameter changes. A C-contiguous,
        writeable float64 array is kept as the parameter itself, so the
        caller must not reuse it; any other array is copied. Head blocks
        are copied into their joined parameter."""
        schema = param_schema(self.config)
        if set(schema) != set(state):
            missing = sorted(set(schema) - set(state))
            extra = sorted(set(state) - set(schema))
            raise ArtifactMismatchError(
                f"parameter names do not match this configuration; missing {missing[:5]}, unexpected {extra[:5]}"
            )

        def checked(name: str, shape: tuple[int, ...]) -> np.ndarray:
            arr = np.require(state[name], dtype=np.float64, requirements="CW")
            if arr.shape != shape:
                raise ArtifactMismatchError(f"parameter {name!r} has shape {arr.shape}, expected {shape}")
            if not np.isfinite(arr).all():
                raise NumericsError(f"parameter {name!r} holds a value that is not finite")
            return arr

        arrays = join_heads(self.config, ((name, checked(name, shape)) for name, (shape, _) in schema.items()))
        self.params = {name: Tensor(arr, requires_grad=True) for name, arr in arrays.items()}

    def zero_grad(self) -> None:
        for t in self.params.values():
            t.grad = None

    # -- attention ---------------------------------------------------------

    def _project(self, prefix: str, kind: str, x: Tensor, offsets=None) -> Tensor:
        """Rows x through every head's weights at once, "{prefix}.{kind}":
        (rows, heads, d_head). With offsets, x's rows are a group's
        examples end to end."""
        cfg = self.config
        out = matmul(x, self.params[f"{prefix}.{kind}"], offsets)
        return reshape(out, (x.shape[0], cfg.n_heads, cfg.d_head))

    def relative_attention(
        self,
        prefix: str,
        x_q: Tensor,
        x_kv: Tensor,
        *,
        rel: tuple[tuple[str, Sequence[np.ndarray]], ...] = (),
        a_mv: Sequence[np.ndarray] | None = None,
        additive_mask: Sequence[np.ndarray | None] | None = None,
        training: bool = False,
        rng: Sequence[np.random.Generator | None] | None = None,
        capture: list | None = None,
        offsets: Sequence[int],
        kv_offsets: Sequence[int] | None = None,
    ) -> Tensor:
        """Multi-head attention of a group, with optional clipped
        relative-position terms on keys and values and optional
        relation-matrix masking.

        Each (table_prefix, idx) pair of rel adds row idx[i, j] of
        "{table_prefix}_k" to key j and of "{table_prefix}_v" to value j for
        query i; the tables are shared by the heads. Sequential tables have
        2k+1 rows indexed by clamp(j-i, -k, k)+k, structural tables l+1 rows
        indexed by min(d_ij, l). Per head: e_ij = q_i (k_j + sum of key
        rows)^T / sqrt(d_head), then softmax (gated by a_mv per mask_mode),
        then z_i = sum_j alpha_ij (v_j + sum of value rows). Everything
        from q k^T to z, the table terms, gate, softmax and dropout
        included, is one tensor.attention op between the projections and
        the output affine.

        x_q is the (n_q, d_model) query rows, the group's examples end to
        end as offsets mark them, and x_kv the (n_k, d_model) rows they
        attend over, marked by kv_offsets (offsets when None); each example
        attends over its own keys only. Each idx of rel, a_mv and
        additive_mask hold one (n_q, n_k) array per example, and rng one
        generator per example (see tensor.attention).
        """
        cfg = self.config
        kv_rows = offsets if kv_offsets is None else kv_offsets
        k, v = (self._project(prefix, kind, x_kv, kv_rows) for kind in "kv")
        scale_matrix = None
        if a_mv is not None:
            if cfg.mask_mode == "multiply":
                scale_matrix = a_mv
            else:
                masks = [None] * len(a_mv) if additive_mask is None else additive_mask
                additive_mask = [_gate_mask(a, m) for a, m in zip(a_mv, masks)]
        q = self._project(prefix, "q", x_q, offsets)
        tables = tuple((self.params[f"{table}_k"], self.params[f"{table}_v"], idx) for table, idx in rel)
        z = attention(q, k, v, tables, additive_mask=additive_mask, scale_matrix=scale_matrix,
                      dropout_p=cfg.dropout_p, rng=rng, training=training, capture=capture,
                      offsets=offsets, kv_offsets=kv_offsets)
        cat = reshape(z, (x_q.shape[0], cfg.d_model))
        return _affine(cat, self.params[f"{prefix}.out_w"], self.params[f"{prefix}.out_b"], offsets)

    def _ffn(self, prefix: str, x: Tensor, offsets=None) -> Tensor:
        p = self.params
        hidden = relu(_affine(x, p[f"{prefix}.w1"], p[f"{prefix}.b1"], offsets))
        return _affine(hidden, p[f"{prefix}.w2"], p[f"{prefix}.b2"], offsets)

    def _residual(self, x: Tensor, out: Tensor, ln: str, training: bool, rng, offsets=None) -> Tensor:
        """The sublayer rule: LayerNorm(x + Dropout(out)) with "{ln}_g", "{ln}_b"."""
        out = dropout(out, self.config.dropout_p, rng, training, offsets)
        return layernorm(add(x, out), self.params[f"{ln}_g"], self.params[f"{ln}_b"], offsets=offsets)

    # -- encoder layers -----------------------------------------------------

    def encoder_layer(
        self,
        tag: str,
        layer_idx: int,
        x: Tensor,
        bundles: Sequence[StructuralEncodings],
        *,
        seq_idx: Sequence[np.ndarray],
        training: bool = False,
        rng: Sequence[np.random.Generator | None] | None = None,
        capture: list | None = None,
        offsets: Sequence[int],
    ) -> Tensor:
        """One encoder layer of a group: relative self-attention, then the
        FFN block. x's rows are the group's examples end to end as offsets
        mark them, and bundles, seq_idx and rng hold one entry per example.

        RDW first sums a sigmoid gate of FC1(H) + FC2(M_bar H) into H. Every
        tag adds the sequential tables, the structural tables are added when
        srpe_placement covers the tag, and SRPEi gates the attention by the
        multi-view matrix. seq_idx holds each example's sequential index,
        _seq_idx(n), which script_encoder computes once for every layer.
        """
        p = self.params
        cfg = self.config
        base = f"enc{layer_idx}"

        def of_bundles(field: str):  # each example's array
            return [getattr(b, field) for b in bundles]

        if tag == "RDW":
            mixed = block_matmul(of_bundles("distance_weights"), x, offsets)
            h_hat = sigmoid(add(_affine(x, p[f"{base}.fc1_w"], p[f"{base}.fc1_b"], offsets),
                                _affine(mixed, p[f"{base}.fc2_w"], p[f"{base}.fc2_b"], offsets)))
            x = add(x, h_hat)
        rel = ((f"{base}.seq", seq_idx),)
        if tag in STRUCTURAL_TAGS[cfg.srpe_placement]:
            rel += ((f"{base}.str", of_bundles("bucket_ids")),)
        a_mv = of_bundles("multiview") if tag == "SRPEi" else None
        attn = self.relative_attention(f"{base}.attn", x, x, rel=rel, a_mv=a_mv, training=training, rng=rng,
                                       capture=capture, offsets=offsets)
        x = self._residual(x, attn, f"{base}.ln1", training, rng, offsets)
        return self._residual(x, self._ffn(f"{base}.ffn", x, offsets), f"{base}.ln2", training, rng, offsets)

    def _seq_idx(self, n: int) -> np.ndarray:
        return sequential_relpos(n, self.config.k) + self.config.k

    # -- full passes ---------------------------------------------------------

    def script_encoder(
        self,
        src_ids: np.ndarray,
        bundle: StructuralEncodings | Sequence[StructuralEncodings],
        *,
        training: bool = False,
        rng: np.random.Generator | Sequence[np.random.Generator] | None = None,
        capture: list | None = None,
        offsets: Sequence[int] | None = None,
    ) -> Tensor:
        """Embed a group's tokens and run the stacked two-layer modules;
        each module contributes the position-wise sum of its two layer
        outputs. Returns the encoder output, (n, d_model), that the decoder
        reads. src_ids are the group's examples' ids end to end, example
        e's rows offsets[e] to offsets[e + 1], bundle holds one bundle per
        example and rng one generator per example, and the output's rows
        are laid out the same way. With offsets None, src_ids, bundle and
        rng are one example's, a group of one."""
        cfg = self.config
        p = self.params
        src_ids = np.asarray(src_ids, dtype=np.int64)
        if offsets is None:
            bundle, rng, offsets = [bundle], [rng], (0, src_ids.shape[0])
        bundles = list(bundle)
        lengths = [hi - lo for lo, hi in zip(offsets, offsets[1:])]
        if len(bundles) != len(lengths):
            raise ShapeError(f"{len(bundles)} bundles for {len(lengths)} examples")
        for b, n in zip(bundles, lengths):
            for name, arr in (
                ("distance weights", b.distance_weights),
                ("bucket ids", b.bucket_ids),
                ("multiview", b.multiview),
            ):
                if arr.shape != (n, n):
                    raise ShapeError(f"{name} shape {arr.shape} != ({n}, {n})")
        x = scale(embed(p["src_embed"], src_ids, offsets), math.sqrt(cfg.d_model))
        x = dropout(x, cfg.dropout_p, rng, training, offsets)
        common = dict(training=training, rng=rng, capture=capture, offsets=offsets,
                      seq_idx=[self._seq_idx(n) for n in lengths])
        for first in range(0, cfg.n_encoder_layers, 2):
            second = first + 1
            h = self.encoder_layer(cfg.layer_plan[first], first, x, bundles, **common)
            h_prime = self.encoder_layer(cfg.layer_plan[second], second, h, bundles, **common)
            x = add(h, h_prime)
        x = layernorm(x, p["enc_final_g"], p["enc_final_b"], offsets=offsets)
        return x

    def decode(
        self,
        tgt_in_ids: np.ndarray,
        state: Tensor | list[Tensor],
        *,
        cache: DecoderCache | None = None,
        training: bool = False,
        rng: np.random.Generator | None = None,
        offsets: Sequence[int] | None = None,
        state_offsets: Sequence[int] | None = None,
    ) -> Tensor:
        """Decoder logits of new target positions.

        With no cache, the teacher-forced pass of a group, an autodiff
        graph: tgt_in_ids are its examples' decoder inputs, each a whole
        prefix from BOS, end to end, example e's rows offsets[e] to
        offsets[e + 1]; state is the group's encoder output, its rows
        marked by state_offsets (see script_encoder), and rng holds one
        generator per example. Each example attends over its own rows and
        its own source only, and the logits' rows are the ids', (m,
        tgt_vocab). With offsets None, the ids are one (m,) sequence, state
        its source's encoder output and rng its generator, a group of one.

        With a cache, one inference step (_step): tgt_in_ids is one
        sequence, (m,), or one row per beam, (beams, m), and the logits are
        (m * beams, tgt_vocab), row t * beams + b for position t of beam b.
        The new positions follow the cache's, attend to its keys and values,
        and append their own, and the logits are a constant, recording no
        graph whether or not gradients are enabled; training must be False.
        state is the source's encoder output, or one per source of the
        cache, whose rows are laid out over the sources as DecoderCache
        says; it is read only while the cache holds no cross-attention keys.
        """
        cfg = self.config
        p = self.params
        ids = np.asarray(tgt_in_ids, dtype=np.int64)
        if ids.ndim not in (1, 2) or ids.size == 0:
            raise ShapeError(f"decoder ids must be a non-empty (m,) or (beams, m) array, got {ids.shape}")
        if cache is not None:
            if offsets is not None:
                raise ShapeError("a group decodes teacher-forced, with no cache")
            if training:
                raise ConfigError("a cached decoder step runs in eval mode; train on the teacher-forced pass")
            return Tensor(self._step(ids.reshape(-1, ids.shape[-1]), state, cache))
        if ids.ndim != 1 or not isinstance(state, Tensor):
            raise ShapeError("the teacher-forced pass decodes one (m,) sequence of ids from one encoder state")
        if offsets is None:
            rng, offsets, state_offsets = [rng], (0, ids.shape[0]), (0, state.shape[0])
        rows, project = tied_embedding(p["tgt_embed"], ids, offsets)
        y = scale(rows, math.sqrt(cfg.d_model))
        y = dropout(y, cfg.dropout_p, rng, training, offsets)
        causal, seq_idx = zip(*(_self_attention_rows(0, hi - lo, cfg.k) for lo, hi in zip(offsets, offsets[1:])))
        for ly in range(cfg.n_decoder_layers):
            base = f"dec{ly}"
            sa = self.relative_attention(f"{base}.self", y, y, rel=((f"{base}.seq", seq_idx),), additive_mask=causal,
                                         training=training, rng=rng, offsets=offsets)
            y = self._residual(y, sa, f"{base}.ln1", training, rng, offsets)
            ca = self.relative_attention(f"{base}.cross", y, state, training=training, rng=rng, offsets=offsets,
                                         kv_offsets=state_offsets)
            y = self._residual(y, ca, f"{base}.ln2", training, rng, offsets)
            y = self._residual(y, self._ffn(f"{base}.ffn", y, offsets), f"{base}.ln3", training, rng, offsets)
        return add(project(y), p["out_bias"], offsets)

    def _step(self, ids: np.ndarray, states: Tensor | list[Tensor], cache: DecoderCache) -> np.ndarray:
        """decode's cached step on plain arrays: the logits of the (beams, m)
        ids' new positions, whose keys and values are appended to the cache.
        Each expression is that of the step built from autodiff ops in eval
        mode, in the same order, so the logits are the bits that graph gives."""
        cfg = self.config
        p = self.params
        beams, m = ids.shape
        past = cache.length
        if past and cache.beams != beams:
            raise ShapeError(f"{beams} beams of ids for a cache of {cache.beams} beams")
        sources = len(cache.sources)
        if beams % sources:
            raise ShapeError(f"{beams} beams of ids are not laid out over {sources} sources")
        # numpy indexing would read a negative id as a row from the end
        _check_ids(ids, cfg.tgt_vocab_size, "embedding")
        if not cache.cross:
            states = [states] if isinstance(states, Tensor) else list(states)
            if len(states) != sources:
                raise ShapeError(f"{len(states)} encoder states for a cache of {sources} sources")
            cache.cross, cache.cross_mask = self._cross_keys_values(states)
        cross_mask = None
        if cache.cross_mask is not None:  # one (n_q, n_k) mask per source and head
            per_group = np.repeat(cache.cross_mask, cfg.n_heads, axis=0)[:, None, :]
            cross_mask = np.broadcast_to(per_group, (sources * cfg.n_heads, m * beams // sources, per_group.shape[-1]))
        causal, seq_idx = _self_attention_rows(past, m, cfg.k)

        def affine(x, prefix, w, b):
            return x @ p[f"{prefix}.{w}"].data + p[f"{prefix}.{b}"].data

        def residual(x, out, ln):  # _residual in eval mode
            return _layernorm_rows(x + out, p[f"{ln}_g"].data, p[f"{ln}_b"].data, LAYERNORM_EPS)[0]

        def attend(prefix, x, k, v, tables, mask):  # relative_attention on k and v, in eval mode
            q = self._heads(x, f"{prefix}.q", k.shape[1] // cfg.n_heads)
            z = _attend(q, k, v, tables, mask, None, 0.0, None, False, None)[0]
            return affine(z.reshape(x.shape[0], cfg.d_model), prefix, "out_w", "out_b")

        y = p["tgt_embed"].data[ids.T.reshape(-1)] * math.sqrt(cfg.d_model)
        self_kv = []
        for ly in range(cfg.n_decoder_layers):
            base = f"dec{ly}"
            k, v = (self._heads(y, f"{base}.self.{kind}", beams) for kind in "kv")
            if past:
                k_past, v_past = cache.self_kv[ly]
                k, v = np.concatenate([k_past, k]), np.concatenate([v_past, v])
            self_kv.append((k, v))
            tables = ((p[f"{base}.seq_k"], p[f"{base}.seq_v"], seq_idx),)
            y = residual(y, attend(f"{base}.self", y, k, v, tables, causal), f"{base}.ln1")
            y = residual(y, attend(f"{base}.cross", y, *cache.cross[ly], (), cross_mask), f"{base}.ln2")
            hidden = np.maximum(affine(y, f"{base}.ffn", "w1", "b1"), 0.0)
            y = residual(y, affine(hidden, f"{base}.ffn", "w2", "b2"), f"{base}.ln3")
        cache.self_kv, cache.beams = self_kv, beams
        return y @ p["tgt_embed"].data.T + p["out_bias"].data

    def _heads(self, x: np.ndarray, name: str, groups: int) -> np.ndarray:
        """_project on arrays for `groups` interleaved sequences, row t *
        groups + g holding position t of sequence g: rows x times parameter
        name, (positions, groups * heads, d_head), sequence-major on its
        middle axis."""
        cfg = self.config
        return (x @ self.params[name].data).reshape(x.shape[0] // groups, groups * cfg.n_heads, cfg.d_head)

    def _cross_keys_values(
        self, states: list[Tensor]
    ) -> tuple[list[tuple[np.ndarray, np.ndarray]], np.ndarray | None]:
        """Each decoder layer's cross-attention keys and values of the
        sources, zero-padded to the longest, and the padding mask; see
        DecoderCache. One source is neither padded nor copied."""
        lengths = np.array([h.shape[0] for h in states])
        n = int(lengths.max())

        def padded(parts: list[np.ndarray]) -> np.ndarray:
            parts = [part if part.shape[0] == n else
                     np.concatenate([part, np.zeros((n - part.shape[0],) + part.shape[1:])])
                     for part in parts]
            return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)

        cross = []
        for ly in range(self.config.n_decoder_layers):
            kv = [[self._heads(h.data, f"dec{ly}.cross.{kind}", 1) for kind in "kv"] for h in states]
            cross.append((padded([k for k, _ in kv]), padded([v for _, v in kv])))
        mask = None if (lengths == n).all() else np.where(np.arange(n) >= lengths[:, None], NEG_INF, 0.0)
        return cross, mask

    def forward_loss(
        self,
        src_ids: np.ndarray,
        bundle: StructuralEncodings | Sequence[StructuralEncodings],
        tgt_ids: np.ndarray,
        *,
        training: bool = False,
        rng: np.random.Generator | None = None,
    ) -> Tensor:
        """Mean next-token cross-entropy of each example of a group,
        (examples,), as one graph: src_ids, bundle, tgt_ids and rng hold
        one entry per example, and each example's loss and gradients are
        the bits it has on its own (see tensor). One example's arguments
        are a group of one, whose loss is 0-d.

        tgt_ids must start with BOS and end with EOS; the decoder input is
        tgt_ids[:-1] and the prediction targets are tgt_ids[1:].
        """
        one = isinstance(bundle, StructuralEncodings)
        if one:
            src_ids, bundle, tgt_ids, rng = [src_ids], [bundle], [tgt_ids], [rng]
        sources, targets = list(src_ids), [np.asarray(t, dtype=np.int64) for t in tgt_ids]
        if len(sources) != len(targets):
            raise ShapeError(f"{len(sources)} sources for {len(targets)} summaries")
        if any(t.ndim != 1 or t.shape[0] < 2 for t in targets):
            raise ShapeError("summary encoding must contain at least BOS and EOS")
        src_offsets = tuple(accumulate((len(ids) for ids in sources), initial=0))
        tgt_offsets = tuple(accumulate((len(t) - 1 for t in targets), initial=0))
        state = self.script_encoder(np.concatenate(sources), bundle, training=training, rng=rng, offsets=src_offsets)
        logits = self.decode(np.concatenate([t[:-1] for t in targets]), state, training=training, rng=rng,
                             offsets=tgt_offsets, state_offsets=src_offsets)
        # the cross-entropy of one segment, 0-d, is a lone example's loss
        return cross_entropy(logits, np.concatenate([t[1:] for t in targets]), None if one else tgt_offsets)

    # -- generation ------------------------------------------------------------

    def _beam_log_probs(
        self, seqs: list[tuple[int, ...]], state: Tensor | list[Tensor], cache: DecoderCache
    ) -> np.ndarray:
        """Next-token log-probabilities of every row of the cache, (rows,
        tgt_vocab), from one cached decoder step on each row's newest token;
        seqs[i] is row i's sequence."""
        logits = self.decode(np.array([seq[-1:] for seq in seqs]), state, cache=cache).data
        return _log_softmax(logits, seqs, cache.sources)

    def beam_search(
        self,
        state: Tensor,
        beam_size: int = 5,
        max_len: int = 50,
        length_penalty: float = 1.0,
    ) -> list[int]:
        """Length-normalized beam search of one source; returns generated
        ids without BOS/EOS. Ties in score are broken toward the smaller
        token ids, so decoding is fully deterministic. beam_size=1 is
        greedy decoding. This is the one-source case of _search."""
        return self._search([state], 0, beam_size, max_len, length_penalty)[0]

    def _search(
        self,
        states: list[Tensor],
        first: int,
        beam_size: int,
        max_len: int,
        length_penalty: float,
    ) -> list[list[int]]:
        """Beam-search every source of states at once, one decoder call per
        step on every row's newest token; states[i] is the caller's source
        first + i, which a NumericsError names. Row b * S + s is beam b of
        the s-th unfinished source (see DecoderCache). A source with fewer
        live beams than the widest repeats its last one, whose outputs are
        ignored. Each source ranks its own candidates, as when decoded
        alone, and leaves the rows when its last beam ends or when no live
        beam can overtake its best finished one: log-probs only fall, so a
        live beam's normalized score can reach at most its log-prob over
        the largest L ** length_penalty of the lengths L it can still end
        at, and a source stops once its best finished score is strictly
        greater than that bound for every live beam.
        """
        check_search(beam_size, max_len, length_penalty)
        eos, n_vocab = self.config.eos_id, self.config.tgt_vocab_size

        def normalized(seq: tuple[int, ...], lp: float) -> float:
            return lp / (len(seq) - 1) ** length_penalty

        cache = DecoderCache(sources=list(range(first, first + len(states))))
        # active[s] are source s's live beams, sorted by sequence
        active: list[list[tuple[tuple[int, ...], float]]] = [[((self.config.bos_id,), 0.0)] for _ in states]
        finished: list[list[tuple[tuple[int, ...], float]]] = [[] for _ in states]
        best = [-math.inf] * len(states)  # each source's best finished normalized score
        live = list(range(len(states)))  # unfinished sources, in the cache's group order
        for step in range(1, max_len + 1):
            if not live:
                break
            width = max(len(active[s]) for s in live)
            seqs = [active[s][min(b, len(active[s]) - 1)][0] for b in range(width) for s in live]
            log_probs = self._beam_log_probs(seqs, states, cache).reshape(width, len(live), n_vocab)
            kept, parents = [], []
            for j, s in enumerate(live):
                # Live beams have equal length, so with them sorted by
                # sequence a stable sort on -score breaks ties by sequence + token.
                beams = active[s]
                scores = np.array([lp for _, lp in beams])[:, None] + log_probs[:len(beams), j]
                top = np.argsort(-scores.ravel(), kind="stable")[:beam_size].tolist()
                ranked = [(i // n_vocab, beams[i // n_vocab][0] + (i % n_vocab,), scores.item(i)) for i in top]
                ended = [(seq, lp) for _, seq, lp in ranked if seq[-1] == eos]
                finished[s] += ended
                best[s] = max([best[s]] + [normalized(seq, lp) for seq, lp in ended])
                survivors = sorted((item for item in ranked if item[1][-1] != eos), key=lambda item: item[1])
                if survivors and step < max_len and (
                        best[s] > max(lp for _, _, lp in survivors) / _reach(step, max_len, length_penalty)):
                    # dropped, not ranked: decoding on, each would end
                    # later, below the best finished one
                    survivors = []
                active[s] = [(seq, lp) for _, seq, lp in survivors]
                if survivors:
                    kept.append(j)
                    parents.append([b * len(live) + j for b, _, _ in survivors])
            live = [live[j] for j in kept]
            width = max(map(len, parents), default=0)
            cache.select([rows[min(b, len(rows) - 1)] for b in range(width) for rows in parents], kept)

        def rank(item: tuple[tuple[int, ...], float]) -> tuple[float, tuple[int, ...]]:
            """Best length-normalized score first, ties toward the smaller sequence."""
            return -normalized(*item), item[0]

        summaries = []
        for done, beams in zip(finished, active):
            best_seq = list(min(done + beams, key=rank)[0][1:])
            summaries.append(best_seq[:-1] if best_seq and best_seq[-1] == eos else best_seq)
        return summaries

    def greedy_decode(self, state: Tensor, max_len: int = 50) -> list[int]:
        return self.beam_search(state, beam_size=1, max_len=max_len)

    def summarize(
        self,
        src_ids: np.ndarray,
        bundle: StructuralEncodings,
        beam_size: int = 5,
        max_len: int = 50,
        length_penalty: float = 1.0,
    ) -> list[int]:
        """Encode one source and beam-decode its summary ids: the one-source
        case of summarize_many."""
        return self.summarize_many([(src_ids, bundle)], beam_size, max_len, length_penalty)[0]

    def summarize_many(
        self,
        sources: Sequence[tuple[np.ndarray, StructuralEncodings]],
        beam_size: int = 5,
        max_len: int = 50,
        length_penalty: float = 1.0,
    ) -> list[list[int]]:
        """Encode each (src_ids, bundle) source and beam-decode its summary
        ids, recording no graph, under inference_numerics. Every inference
        caller decodes through here. Sources are decoded in input order, in
        chunks of DECODE_CHUNK whose beams share each decoder step, so a
        summary's bits can depend on the sources decoded with it: the same
        sources in the same order give the same summaries. A chunk is
        encoded in the groups of example_groups; a source's state is its
        rows of its group's output, the bits it has when encoded alone."""
        check_search(beam_size, max_len, length_penalty)
        summaries: list[list[int]] = []
        with no_grad(), inference_numerics():
            for first in range(0, len(sources), DECODE_CHUNK):
                chunk = sources[first:first + DECODE_CHUNK]
                states = []
                for group in example_groups([len(src_ids) for src_ids, _ in chunk]):
                    ids, bundles = zip(*(chunk[i] for i in group))
                    offsets = tuple(accumulate(map(len, ids), initial=0))
                    out = self.script_encoder(np.concatenate(ids), bundles, offsets=offsets).data
                    states += [Tensor(out[lo:hi]) for lo, hi in zip(offsets, offsets[1:])]
                summaries += self._search(states, first, beam_size, max_len, length_penalty)
        return summaries


# -- module-level helpers ----------------------------------------------------


def example_groups(*rows: Sequence[int]) -> list[list[int]]:
    """Positions of consecutive examples in groups, given each example's
    rows of each kind (source, decoder input): a group closes before an
    example that would take its rows of any kind past MAX_SOURCE_TOKENS.
    Training, the validation loss and inference all group by this rule."""
    groups: list[list[int]] = []
    totals: list[int] = []
    for i, counts in enumerate(zip(*rows)):
        if not groups or any(t + n > MAX_SOURCE_TOKENS for t, n in zip(totals, counts)):
            groups.append([])
            totals = [0] * len(counts)
        groups[-1].append(i)
        totals = [t + n for t, n in zip(totals, counts)]
    return groups


@contextmanager
def inference_numerics():
    """Floating-point overflow or an invalid operation raises a one-line
    NumericsError instead of a numpy warning; finite results are unchanged."""
    with np.errstate(over="raise", invalid="raise"):
        try:
            yield
        except FloatingPointError as exc:
            raise NumericsError(f"{exc} during inference") from exc


def check_search(beam_size: int, max_len: int, length_penalty: float) -> None:
    """ConfigError unless beam search can run with these settings."""
    if beam_size < 1:
        raise ConfigError(f"beam_size must be >= 1, got {beam_size}")
    if max_len < 1:
        raise ConfigError(f"max_len must be >= 1, got {max_len}")
    try:  # gen_len ** length_penalty is monotone in gen_len, so max_len bounds it
        longest = float(max_len) ** length_penalty
    except OverflowError:
        longest = math.inf
    if not (math.isfinite(length_penalty) and 0.0 < longest < math.inf):
        raise ConfigError(f"length_penalty {length_penalty!r} overflows max_len ** length_penalty")


def _reach(step: int, max_len: int, length_penalty: float) -> float:
    """The largest L ** length_penalty over step < L <= max_len, the lengths
    a live beam of step tokens can still end at. L ** length_penalty is
    monotone in L, so one end of the range holds it."""
    return max((step + 1) ** length_penalty, max_len ** length_penalty)


def _log_softmax(logits: np.ndarray, prefixes, sources=(0,)) -> np.ndarray:
    """Row-wise log-softmax of (rows, vocab) decoder logits; row i follows
    prefixes[i] of source sources[i % len(sources)], which a NumericsError
    names when the row is not finite."""
    finite = np.isfinite(logits).all(axis=1)
    if not finite.all():
        row = int(np.argmin(finite))
        raise NumericsError(
            f"decoder logits of source {sources[row % len(sources)]} are not finite after prefix {list(prefixes[row])}"
        )
    z = logits - logits.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


def _self_attention_rows(past: int, m: int, clip: int) -> tuple[np.ndarray | None, np.ndarray]:
    """The causal mask and sequential-offset index of m new decoder
    positions after past ones, over every key so far; one new position
    sees every key, so its causal row masks nothing."""
    pos, keys = np.arange(past, past + m)[:, None], np.arange(past + m)
    causal = np.where(keys > pos, NEG_INF, 0.0) if m > 1 else None
    return causal, np.minimum(np.maximum(keys - pos, -clip), clip) + clip


def _affine(x: Tensor, w: Tensor, b: Tensor, offsets=None) -> Tensor:
    return add(matmul(x, w, offsets), b, offsets)


def _gate_mask(a_mv: np.ndarray, additive_mask: np.ndarray | None) -> np.ndarray:
    """neg_inf masking: NEG_INF where the relation matrix is not positive,
    added to additive_mask if given."""
    keep = np.where(a_mv > 0, 0.0, NEG_INF)
    return keep if additive_mask is None else keep + additive_mask


def save_model_sidecar(path, config: ModelConfig, extra: dict | None = None) -> None:
    """Write the JSON sidecar describing a checkpoint's architecture."""
    payload = {"model_config": config.to_dict()}
    if extra:
        payload.update(extra)
    write_json(path, payload, sort_keys=True)


def load_model_sidecar(path) -> tuple[ModelConfig, dict]:
    """Read a sidecar back; returns the config and the full payload."""
    payload = read_json_object(path)
    if "model_config" not in payload:
        raise FormatError("sidecar missing 'model_config'")
    return ModelConfig.from_dict(payload["model_config"]), payload


__all__ = [
    "ModelConfig",
    "DecoderCache",
    "ScriptModel",
    "ablation_layer_plan",
    "check_search",
    "example_groups",
    "inference_numerics",
    "param_schema",
    "save_model_sidecar",
    "load_model_sidecar",
]
