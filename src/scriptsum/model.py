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

Attention runs all heads in one pass, with heads as an axis of the scores;
each relative-position table is shared by the heads and gathered once.

Decoding is incremental, and `decode` is both the teacher-forced pass and
the decoding step. A DecoderCache carries each decoder layer's
cross-attention keys and values of the source, computed once, and its
self-attention keys and values of the positions decoded so far; `decode`
runs new positions against the cache and appends theirs. Under the causal
mask the keys, values and relative offsets of earlier positions never
change, so the cached step equals a full pass over the prefix. Training
calls `decode` with an empty cache and every position at once. Beam search
runs the live beams as one batch, one row per beam, one decoder call per
step; it ranks the beam x vocabulary candidates as one array and gathers
the cache's rows by parent beam.

Every parameter is declared once, in `param_schema`: the constructor draws
from it in order, and loading checks names and shapes against it without
drawing anything.

All forward passes operate on one example in float64 (the only batch axis
is the decoder's beams), so results are bit-reproducible for a fixed seed.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .errors import ArtifactMismatchError, ConfigError, FormatError, NumericsError, ShapeError
from .structure import DEFAULT_DISTANCE_CLIP, StructuralEncodings, sequential_relpos
from .tensor import (
    NEG_INF,
    Tensor,
    add,
    concat,
    cross_entropy,
    dropout,
    embed,
    gather,
    layernorm,
    matmul,
    no_grad,
    relu,
    reshape,
    scale,
    sigmoid,
    softmax_masked,
    transpose,
)

LAYER_TAGS = ("RDW", "SRPEi", "PLAIN")
MASK_MODES = ("multiply", "neg_inf")
# each srpe_placement -> the layer tags whose attention adds the structural tables
STRUCTURAL_TAGS = {"SRPEi_only": ("SRPEi",), "RDW_only": ("RDW",), "all": ("RDW", "SRPEi")}
SRPE_PLACEMENTS = tuple(STRUCTURAL_TAGS)


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
class EncoderState:
    """Encoder output plus the per-example inputs the decoder needs."""

    h: Tensor
    mask: np.ndarray | None  # 1.0 for real positions, 0.0 for padding


@dataclass
class DecoderCache:
    """Keys and values that decoding one source reuses from step to step.

    cross holds each decoder layer's cross-attention keys and values of the
    encoder output, (n_src, heads, d_head), made by the first decode call.
    self_kv holds each layer's self-attention keys and values of every
    target position decoded so far, (positions, beams * heads, d_head),
    beam-major on the middle axis; each decode call appends its positions.
    Under the causal mask an earlier position's keys, values and relative
    offsets never change, so reusing them is exact.
    """

    cross: list[tuple[Tensor, Tensor]] = field(default_factory=list)
    self_kv: list[tuple[Tensor, Tensor]] = field(default_factory=list)
    beams: int = 0

    @property
    def length(self) -> int:
        """Target positions decoded so far."""
        return self.self_kv[0][0].shape[0] if self.self_kv else 0

    def select(self, rows: list[int]) -> None:
        """Keep the given beams, in that order; a beam may be kept more than
        once. The kept keys and values record no graph."""

        def pick(t: Tensor) -> Tensor:
            n, width, dh = t.shape
            heads = width // self.beams
            kept = t.data.reshape(n, self.beams, heads, dh)[:, rows]
            return Tensor(kept.reshape(n, len(rows) * heads, dh))

        self.self_kv = [(pick(k), pick(v)) for k, v in self.self_kv]
        self.beams = len(rows)


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


def _pad_additive(mask: np.ndarray | None, n_queries: int, n_keys: int) -> np.ndarray | None:
    """Additive attention mask dropping padded key columns."""
    if mask is None:
        return None
    mask = np.asarray(mask, dtype=np.float64)
    if mask.shape != (n_keys,):
        raise ShapeError(f"padding mask shape {mask.shape} != ({n_keys},)")
    row = np.where(mask > 0, 0.0, NEG_INF)
    return np.broadcast_to(row[None, :], (n_queries, n_keys)).copy()


def _causal_additive(n: int) -> np.ndarray:
    out = np.zeros((n, n))
    out[np.triu_indices(n, k=1)] = NEG_INF
    return out


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
    """The full network: parameters, per-example forward passes, decoding."""

    def __init__(self, config: ModelConfig, seed: int = 0):
        """Draw param_schema(config) in order from one generator seeded by seed."""
        rng = np.random.default_rng(seed)
        self.config = config
        self.params = {
            name: Tensor(_draw(rng, shape, init), requires_grad=True)
            for name, (shape, init) in param_schema(config).items()
        }

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
        return {name: t.data.copy() for name, t in self.params.items()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Replace every parameter. Names and shapes must match
        param_schema(self.config) (ArtifactMismatchError) and every value
        must be finite (NumericsError, naming the first parameter that is
        not); on either error no parameter changes."""
        schema = param_schema(self.config)
        if set(schema) != set(state):
            missing = sorted(set(schema) - set(state))
            extra = sorted(set(state) - set(schema))
            raise ArtifactMismatchError(
                f"parameter names do not match this configuration; missing {missing[:5]}, unexpected {extra[:5]}"
            )
        arrays = {}
        for name, (shape, _) in schema.items():
            arr = np.asarray(state[name], dtype=np.float64)
            if arr.shape != shape:
                raise ArtifactMismatchError(f"parameter {name!r} has shape {arr.shape}, expected {shape}")
            if not np.isfinite(arr).all():
                raise NumericsError(f"parameter {name!r} holds a value that is not finite")
            arrays[name] = arr
        self.params = {name: Tensor(arr.copy(), requires_grad=True) for name, arr in arrays.items()}

    def zero_grad(self) -> None:
        for t in self.params.values():
            t.grad = None

    # -- attention ---------------------------------------------------------

    def _project(self, prefix: str, kind: str, x: Tensor, groups: int) -> Tensor:
        """Rows x through every head's "{prefix}.{kind}{h}" weights at once.
        The rows are `groups` interleaved sequences, row t * groups + g
        holding position t of sequence g; the result is
        (positions, groups * heads, d_head), sequence-major on its middle axis."""
        cfg = self.config
        w = concat([self.params[f"{prefix}.{kind}{h}"] for h in range(cfg.n_heads)], axis=1)
        return reshape(matmul(x, w), (x.shape[0] // groups, groups * cfg.n_heads, cfg.d_head))

    def keys_values(self, prefix: str, x: Tensor, groups: int = 1) -> tuple[Tensor, Tensor]:
        """Keys and values of rows x for the attention at prefix, each
        (positions, groups * heads, d_head); see _project for the row order."""
        return self._project(prefix, "k", x, groups), self._project(prefix, "v", x, groups)

    def relative_attention(
        self,
        prefix: str,
        x_q: Tensor,
        x_kv: Tensor | tuple[Tensor, Tensor],
        *,
        rel: tuple[tuple[str, np.ndarray], ...] = (),
        a_mv: np.ndarray | None = None,
        additive_mask: np.ndarray | None = None,
        training: bool = False,
        rng: np.random.Generator | None = None,
        capture: list | None = None,
    ) -> Tensor:
        """Multi-head attention with optional clipped relative-position
        terms on keys and values and optional relation-matrix masking.

        Each (table_prefix, idx) pair of rel adds row idx[i, j] of
        "{table_prefix}_k" to key j and of "{table_prefix}_v" to value j for
        query i; the tables are shared by the heads. Sequential tables have
        2k+1 rows indexed by clamp(j-i, -k, k)+k, structural tables l+1 rows
        indexed by min(d_ij, l). Per head: e_ij = q_i (k_j + sum of key
        rows)^T / sqrt(d_head), then softmax (gated by a_mv per mask_mode),
        then z_i = sum_j alpha_ij (v_j + sum of value rows).

        x_kv is the (n_k, d_model) rows to attend over, or their keys and
        values from `keys_values`, each (n_k, groups * heads, d_head). With
        groups > 1 the query rows x_q interleave that many sequences (row
        t * groups + g is query t of sequence g; see _project), and each
        sequence attends over its own keys: the sequences are extra heads.
        The decoder runs one sequence per beam. rel, a_mv and additive_mask
        are (n_q, n_k) over one sequence's queries and keys.
        """
        cfg = self.config
        heads, dh = cfg.n_heads, cfg.d_head
        inv_sqrt = 1.0 / math.sqrt(dh)
        k, v = self.keys_values(prefix, x_kv) if isinstance(x_kv, Tensor) else x_kv
        gate_additive = additive_mask
        scale_matrix = None
        if a_mv is not None:
            if cfg.mask_mode == "multiply":
                scale_matrix = a_mv
            else:
                keep = np.where(a_mv > 0, 0.0, NEG_INF)
                gate_additive = keep if additive_mask is None else keep + additive_mask

        q = self._project(prefix, "q", x_q, k.shape[1] // heads)  # (n_q, groups * heads, dh)
        e = matmul(transpose(q, (1, 0, 2)), transpose(k, (1, 2, 0)))  # (groups * heads, n_q, n_k)
        for table, idx in rel:
            e = add(e, _rel_scores(q, self.params[f"{table}_k"], idx))
        e = scale(e, inv_sqrt)
        alpha = softmax_masked(e, additive_mask=gate_additive, scale_matrix=scale_matrix)
        if capture is not None:
            capture.extend(head.copy() for head in alpha.data)
        alpha = dropout(alpha, cfg.dropout_p, rng, training)
        z = transpose(matmul(alpha, transpose(v, (1, 0, 2))), (1, 0, 2))  # (n_q, groups * heads, dh)
        for table, idx in rel:
            z = add(z, _rel_values(alpha, self.params[f"{table}_v"], idx))
        cat = reshape(z, (x_q.shape[0], heads * dh))
        return _affine(cat, self.params[f"{prefix}.out_w"], self.params[f"{prefix}.out_b"])

    def _ffn(self, prefix: str, x: Tensor) -> Tensor:
        p = self.params
        hidden = relu(_affine(x, p[f"{prefix}.w1"], p[f"{prefix}.b1"]))
        return _affine(hidden, p[f"{prefix}.w2"], p[f"{prefix}.b2"])

    def _residual(self, x: Tensor, out: Tensor, ln: str, training: bool, rng) -> Tensor:
        """The sublayer rule: LayerNorm(x + Dropout(out)) with "{ln}_g", "{ln}_b"."""
        out = dropout(out, self.config.dropout_p, rng, training)
        return layernorm(add(x, out), self.params[f"{ln}_g"], self.params[f"{ln}_b"])

    # -- encoder layers -----------------------------------------------------

    def encoder_layer(
        self,
        tag: str,
        layer_idx: int,
        x: Tensor,
        bundle: StructuralEncodings,
        *,
        mask: np.ndarray | None = None,
        training: bool = False,
        rng: np.random.Generator | None = None,
        capture: list | None = None,
    ) -> Tensor:
        """One encoder layer: relative self-attention, then the FFN block.

        RDW first sums a sigmoid gate of FC1(H) + FC2(M_bar H) into H. Every
        tag adds the sequential tables, the structural tables are added when
        srpe_placement covers the tag, and SRPEi gates the attention by the
        multi-view matrix. A padded query row's gate is all ones, so neg_inf
        masking never empties it; its output is discarded.
        """
        p = self.params
        cfg = self.config
        base = f"enc{layer_idx}"
        n = x.shape[0]
        if tag == "RDW":
            m_bar = bundle.distance_weights
            if m_bar.shape != (n, n):
                raise ShapeError(f"distance weights shape {m_bar.shape} != ({n}, {n})")
            mixed = matmul(Tensor(m_bar), x)
            h_hat = sigmoid(
                add(
                    _affine(x, p[f"{base}.fc1_w"], p[f"{base}.fc1_b"]),
                    _affine(mixed, p[f"{base}.fc2_w"], p[f"{base}.fc2_b"]),
                )
            )
            x = add(x, h_hat)
        rel = ((f"{base}.seq", self._seq_idx(n)),)
        if tag in STRUCTURAL_TAGS[cfg.srpe_placement]:
            rel += ((f"{base}.str", bundle.bucket_ids),)
        additive_mask = _pad_additive(mask, n, n)
        a_mv = None
        if tag == "SRPEi":
            a_mv = bundle.multiview
            if mask is not None:
                a_mv = np.where(np.asarray(mask)[:, None] > 0, a_mv, 1.0)
        attn = self.relative_attention(
            f"{base}.attn",
            x,
            x,
            rel=rel,
            a_mv=a_mv,
            additive_mask=additive_mask,
            training=training,
            rng=rng,
            capture=capture,
        )
        x = self._residual(x, attn, f"{base}.ln1", training, rng)
        return self._residual(x, self._ffn(f"{base}.ffn", x), f"{base}.ln2", training, rng)

    def _seq_idx(self, n: int) -> np.ndarray:
        return sequential_relpos(n, self.config.k) + self.config.k

    # -- full passes ---------------------------------------------------------

    def script_encoder(
        self,
        src_ids: np.ndarray,
        bundle: StructuralEncodings,
        mask: np.ndarray | None = None,
        *,
        training: bool = False,
        rng: np.random.Generator | None = None,
        capture: list | None = None,
    ) -> EncoderState:
        """Embed tokens and run the stacked two-layer modules; each module
        contributes the position-wise sum of its two layer outputs."""
        cfg = self.config
        p = self.params
        src_ids = np.asarray(src_ids, dtype=np.int64)
        n = src_ids.shape[0]
        for name, arr in (
            ("distance weights", bundle.distance_weights),
            ("bucket ids", bundle.bucket_ids),
            ("multiview", bundle.multiview),
        ):
            if arr.shape != (n, n):
                raise ShapeError(f"{name} shape {arr.shape} != ({n}, {n})")
        x = scale(embed(p["src_embed"], src_ids), math.sqrt(cfg.d_model))
        x = dropout(x, cfg.dropout_p, rng, training)
        common = dict(mask=mask, training=training, rng=rng, capture=capture)
        for first in range(0, cfg.n_encoder_layers, 2):
            second = first + 1
            h = self.encoder_layer(cfg.layer_plan[first], first, x, bundle, **common)
            h_prime = self.encoder_layer(cfg.layer_plan[second], second, h, bundle, **common)
            x = add(h, h_prime)
        x = layernorm(x, p["enc_final_g"], p["enc_final_b"])
        return EncoderState(h=x, mask=mask)

    def decode(
        self,
        tgt_in_ids: np.ndarray,
        state: EncoderState,
        *,
        cache: DecoderCache | None = None,
        training: bool = False,
        rng: np.random.Generator | None = None,
    ) -> Tensor:
        """Decoder logits of new target positions.

        tgt_in_ids is one sequence, (m,), or one row per beam, (beams, m).
        The logits are (m * beams, tgt_vocab), row t * beams + b for position
        t of beam b. The new positions follow the cache's: they attend to its
        keys and values, and their own are appended to it. With no cache (an
        empty one) the ids are a whole prefix from BOS: the teacher-forced
        pass.
        """
        cfg = self.config
        p = self.params
        ids = np.asarray(tgt_in_ids, dtype=np.int64)
        if ids.ndim not in (1, 2) or ids.size == 0:
            raise ShapeError(f"decoder ids must be a non-empty (m,) or (beams, m) array, got {ids.shape}")
        ids = ids.reshape(-1, ids.shape[-1])
        beams, m = ids.shape
        cache = DecoderCache() if cache is None else cache
        past = cache.length
        if past and cache.beams != beams:
            raise ShapeError(f"{beams} beams of ids for a cache of {cache.beams} beams")
        if not cache.cross:
            cache.cross = [self.keys_values(f"dec{ly}.cross", state.h) for ly in range(cfg.n_decoder_layers)]
        n_src = state.h.shape[0]
        y = scale(embed(p["tgt_embed"], ids.T.reshape(-1)), math.sqrt(cfg.d_model))
        y = dropout(y, cfg.dropout_p, rng, training)
        causal = _causal_additive(past + m)[past:]
        cross_mask = _pad_additive(state.mask, beams * m, n_src)
        seq_idx = self._seq_idx(past + m)[past:]
        self_kv = []
        for ly in range(cfg.n_decoder_layers):
            base = f"dec{ly}"
            k, v = self.keys_values(f"{base}.self", y, beams)
            if past:
                k_past, v_past = cache.self_kv[ly]
                k, v = concat([k_past, k], axis=0), concat([v_past, v], axis=0)
            self_kv.append((k, v))
            sa = self.relative_attention(
                f"{base}.self",
                y,
                (k, v),
                rel=((f"{base}.seq", seq_idx),),
                additive_mask=causal,
                training=training,
                rng=rng,
            )
            y = self._residual(y, sa, f"{base}.ln1", training, rng)
            ca = self.relative_attention(
                f"{base}.cross",
                y,
                cache.cross[ly],
                additive_mask=cross_mask,
                training=training,
                rng=rng,
            )
            y = self._residual(y, ca, f"{base}.ln2", training, rng)
            y = self._residual(y, self._ffn(f"{base}.ffn", y), f"{base}.ln3", training, rng)
        cache.self_kv, cache.beams = self_kv, beams
        logits = add(matmul(y, transpose(p["tgt_embed"], (1, 0))), p["out_bias"])
        return logits

    def forward_loss(
        self,
        src_ids: np.ndarray,
        bundle: StructuralEncodings,
        tgt_ids: np.ndarray,
        *,
        mask: np.ndarray | None = None,
        training: bool = False,
        rng: np.random.Generator | None = None,
    ) -> Tensor:
        """Mean next-token cross-entropy for one (code, summary) example.

        tgt_ids must start with BOS and end with EOS; the decoder input is
        tgt_ids[:-1] and the prediction targets are tgt_ids[1:].
        """
        tgt_ids = np.asarray(tgt_ids, dtype=np.int64)
        if tgt_ids.shape[0] < 2:
            raise ShapeError("summary encoding must contain at least BOS and EOS")
        state = self.script_encoder(src_ids, bundle, mask, training=training, rng=rng)
        logits = self.decode(tgt_ids[:-1], state, training=training, rng=rng)
        return cross_entropy(logits, tgt_ids[1:])

    # -- generation ------------------------------------------------------------

    def decoder_step(self, prefix_ids, state: EncoderState) -> np.ndarray:
        """Probability distribution over the next token after the prefix,
        from a full decoder pass over the prefix: the reference that the
        cached steps of beam_search are tested against."""
        return np.exp(self._next_log_probs(tuple(prefix_ids), state))

    def _next_log_probs(self, prefix_ids: tuple[int, ...], state: EncoderState) -> np.ndarray:
        with no_grad():
            logits = self.decode(np.asarray(prefix_ids, dtype=np.int64), state).data[-1:]
        return _log_softmax(logits, [prefix_ids])[0]

    def _beam_log_probs(
        self, seqs: list[tuple[int, ...]], state: EncoderState, cache: DecoderCache
    ) -> np.ndarray:
        """Next-token log-probabilities of every live beam, (beams, tgt_vocab),
        from one cached decoder step on each beam's newest token."""
        with no_grad():
            logits = self.decode(np.array([seq[-1:] for seq in seqs]), state, cache=cache).data
        return _log_softmax(logits, seqs)

    def beam_search(
        self,
        state: EncoderState,
        beam_size: int = 5,
        max_len: int = 50,
        length_penalty: float = 1.0,
    ) -> list[int]:
        """Length-normalized beam search; returns generated ids without
        BOS/EOS. Ties in score are broken toward the smaller token ids, so
        decoding is fully deterministic. beam_size=1 is greedy decoding.

        Decoding is incremental: the live beams are the rows of one batch,
        and each step runs the decoder once, on every beam's newest token. A
        DecoderCache holds the source's cross-attention keys and values,
        computed once, and each beam's self-attention keys and values of the
        earlier positions; when the beams are re-ranked, its rows are
        gathered by parent beam.
        """
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
        eos, n_vocab = self.config.eos_id, self.config.tgt_vocab_size
        cache = DecoderCache()
        # active[i] is the cache's row i; rows stay sorted by sequence
        active: list[tuple[tuple[int, ...], float]] = [((self.config.bos_id,), 0.0)]
        finished: list[tuple[tuple[int, ...], float]] = []
        for _ in range(max_len):
            if not active:
                break
            # Live beams have equal length, so with rows sorted by sequence a
            # stable sort on -score breaks ties by sequence + token.
            seqs = [seq for seq, _ in active]
            scores = np.array([lp for _, lp in active])[:, None] + self._beam_log_probs(seqs, state, cache)
            top = np.argsort(-scores.ravel(), kind="stable")[:beam_size].tolist()
            ranked = [(i // n_vocab, seqs[i // n_vocab] + (i % n_vocab,), scores.item(i)) for i in top]
            finished += [(seq, lp) for _, seq, lp in ranked if seq[-1] == eos]
            live = sorted((item for item in ranked if item[1][-1] != eos), key=lambda item: item[1])
            cache.select([parent for parent, _, _ in live])
            active = [(seq, lp) for _, seq, lp in live]

        def rank(item: tuple[tuple[int, ...], float]) -> tuple[float, tuple[int, ...]]:
            """Best length-normalized score first, ties toward the smaller sequence."""
            seq, lp = item
            return -(lp / (len(seq) - 1) ** length_penalty), seq

        best = min(finished + active, key=rank)[0]
        out = list(best[1:])
        if out and out[-1] == eos:
            out.pop()
        return out

    def greedy_decode(self, state: EncoderState, max_len: int = 50) -> list[int]:
        return self.beam_search(state, beam_size=1, max_len=max_len)

    def summarize(
        self,
        src_ids: np.ndarray,
        bundle: StructuralEncodings,
        beam_size: int = 5,
        max_len: int = 50,
        length_penalty: float = 1.0,
    ) -> list[int]:
        """Encode one source and beam-decode its summary ids, recording no
        graph, under inference_numerics. Every inference caller decodes
        through here."""
        with no_grad(), inference_numerics():
            state = self.script_encoder(src_ids, bundle)
            return self.beam_search(state, beam_size, max_len, length_penalty)


# -- module-level helpers ----------------------------------------------------


@contextmanager
def inference_numerics():
    """Floating-point overflow or an invalid operation raises a one-line
    NumericsError instead of a numpy warning; finite results are unchanged."""
    with np.errstate(over="raise", invalid="raise"):
        try:
            yield
        except FloatingPointError as exc:
            raise NumericsError(f"{exc} during inference") from exc


def _log_softmax(logits: np.ndarray, prefixes) -> np.ndarray:
    """Row-wise log-softmax of (rows, vocab) decoder logits; row i follows
    prefixes[i], which a NumericsError names when the row is not finite."""
    finite = np.isfinite(logits).all(axis=1)
    if not finite.all():
        bad = list(prefixes[int(np.argmin(finite))])
        raise NumericsError(f"decoder logits are not finite after prefix {bad}")
    z = logits - logits.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


def _affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    return add(matmul(x, w), b)


def _rel_scores(q: Tensor, table: Tensor, idx: np.ndarray) -> Tensor:
    """Pairwise scores q_hi . table[idx[i, j]] for every head h, from one
    gather: (n_q, heads, dh) @ (n_q, dh, n_k), returned as (heads, n_q, n_k)."""
    r = gather(table, idx)  # (n_q, n_k, dh)
    e = matmul(q, transpose(r, (0, 2, 1)))  # (n_q, heads, n_k)
    return transpose(e, (1, 0, 2))


def _rel_values(alpha: Tensor, table: Tensor, idx: np.ndarray) -> Tensor:
    """Attention-weighted sums of table rows, sum_j alpha_hij table[idx[i, j]],
    for every head from one gather: (n_q, heads, n_k) @ (n_q, n_k, dh)."""
    r = gather(table, idx)  # (n_q, n_k, dh)
    return matmul(transpose(alpha, (1, 0, 2)), r)  # (n_q, heads, dh)


def save_model_sidecar(path, config: ModelConfig, extra: dict | None = None) -> None:
    """Write the JSON sidecar describing a checkpoint's architecture."""
    payload = {"model_config": config.to_dict()}
    if extra:
        payload.update(extra)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_model_sidecar(path) -> tuple[ModelConfig, dict]:
    """Read a sidecar back; returns the config and the full payload."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"invalid sidecar JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise FormatError("sidecar must be a JSON object")
    if "model_config" not in payload:
        raise FormatError("sidecar missing 'model_config'")
    return ModelConfig.from_dict(payload["model_config"]), payload


__all__ = [
    "ModelConfig",
    "EncoderState",
    "DecoderCache",
    "ScriptModel",
    "ablation_layer_plan",
    "inference_numerics",
    "param_schema",
    "save_model_sidecar",
    "load_model_sidecar",
]
