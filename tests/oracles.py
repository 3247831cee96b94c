"""Independent reference implementations used to verify the package.

Everything here is deliberately written with different algorithms than the
library (BFS instead of preorder lca depths, pairwise loops
instead of vectorised relation views, explicit subsequence enumeration
instead of DP, step-by-step argmax instead of beam bookkeeping) so
agreement is meaningful. The exceptions are attention, its projections
and the training step. composed_attention builds tensor.attention from one
autodiff op per step, with relative_scores and relative_values for the
table terms; per_head_project and per_head_rows concatenate one leaf tensor
per head on every call; per_example_batch runs a training batch as one
graph per example, a group of one each; graph_decode_step runs a cached
decoder step as an autodiff graph, with its own projection of interleaved
beams and attention over given keys and values, since the library's graph
decodes one sequence.
The fused op, the joined projections, the grouped batch and the
array step must equal them bit for bit, gradients included. evaluate_token_accuracy, the
overfit criterion's measure, has no library counterpart.
"""

import math
from collections import deque
from itertools import product

import numpy as np

from scriptsum.astcore import Ast, AstNode, TokenAlignment
from scriptsum.errors import ShapeError
from scriptsum.model import NEG_INF, DecoderCache, _affine, _log_softmax, _self_attention_rows
from scriptsum.structure import _flow_edges, _statement_of
from scriptsum.training import _example_rng
from scriptsum.tensor import (
    Tensor,
    backward,
    _check_ids,
    _make,
    add,
    attention,
    concat,
    dropout,
    gather,
    matmul,
    mul,
    no_grad,
    reshape,
    scale,
    softmax_masked,
    tied_embedding,
    transpose,
)


def random_tree(rng: np.random.Generator, n_nodes: int) -> Ast:
    """Random tree with canonical ids; leaves carry values."""
    parents = [None] + [int(rng.integers(0, i)) for i in range(1, n_nodes)]
    children: list[list[int]] = [[] for _ in range(n_nodes)]
    for child, parent in enumerate(parents):
        if parent is not None:
            children[parent].append(child)
    nodes = [
        AstNode(
            id=i,
            node_type=f"T{int(rng.integers(0, 5))}",
            value=f"v{i}" if not children[i] else None,
            children=tuple(children[i]),
        )
        for i in range(n_nodes)
    ]
    return Ast(nodes)


def bfs_apsp(ast: Ast) -> np.ndarray:
    """All-pairs shortest paths by breadth-first search from every node."""
    n = len(ast)
    adjacency: list[list[int]] = [[] for _ in range(n)]
    for node in ast.nodes:
        for child in node.children:
            adjacency[node.id].append(child)
            adjacency[child].append(node.id)
    dist = np.full((n, n), -1, dtype=np.int64)
    for start in range(n):
        dist[start, start] = 0
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in adjacency[u]:
                if dist[start, v] < 0:
                    dist[start, v] = dist[start, u] + 1
                    queue.append(v)
    return dist


def node_depths(ast: Ast) -> list[int]:
    parent = {}
    for node in ast.nodes:
        for child in node.children:
            parent[child] = node.id
    depths = []
    for i in range(len(ast)):
        d = 0
        j = i
        while j in parent:
            j = parent[j]
            d += 1
        depths.append(d)
    return depths


def lca_depth(ast: Ast, a: int, b: int) -> int:
    """Depth of the lowest common ancestor via parent-chain intersection."""
    parent = {}
    for node in ast.nodes:
        for child in node.children:
            parent[child] = node.id
    chain = {a}
    j = a
    while j in parent:
        j = parent[j]
        chain.add(j)
    j = b
    while j not in chain:
        j = parent[j]
    depths = node_depths(ast)
    return depths[j]


def random_minilang(rng: np.random.Generator, n_statements: int) -> str:
    """Random MiniLang program over a small name pool, so names repeat."""
    names = ["a", "b", "n", "total", "getValue", "max_len"]

    def expr(depth: int) -> str:
        roll = int(rng.integers(0, 6 if depth < 3 else 3))
        if roll == 0:
            return names[int(rng.integers(0, len(names)))]
        if roll == 1:
            return str(int(rng.integers(0, 100)))
        if roll == 2:
            return '"s"'
        if roll == 3:
            op = ["+", "-", "*", "/", "%", "<", "=="][int(rng.integers(0, 7))]
            return f"({expr(depth + 1)} {op} {expr(depth + 1)})"
        if roll == 4:
            return f"-{expr(depth + 1)}"
        return f"f({expr(depth + 1)}, {expr(depth + 1)})"

    def block(depth: int) -> str:
        return "{ " + " ".join(stmt(depth + 1) for _ in range(int(rng.integers(1, 4)))) + " }"

    def stmt(depth: int) -> str:
        roll = int(rng.integers(0, 7 if depth < 3 else 3))
        name = names[int(rng.integers(0, len(names)))]
        if roll == 0:
            return f"{name} = {expr(0)};"
        if roll == 1:
            return f"return {expr(0)};"
        if roll == 2:
            return f"{expr(0)};"
        if roll == 3:
            return f"if ({expr(0)}) {block(depth)}"
        if roll == 4:
            return f"if ({expr(0)}) {block(depth)} else {block(depth)}"
        if roll == 5:
            return f"while ({expr(0)}) {block(depth)}"
        return f"function {name}(a, n) {block(depth)}"

    return " ".join(stmt(0) for _ in range(n_statements))


def ast_view_reference(ast: Ast, align: TokenAlignment) -> np.ndarray:
    """Token pairs whose leaves are at most two hops apart, by BFS."""
    idx = list(align.token_to_node)
    return (bfs_apsp(ast)[np.ix_(idx, idx)] <= 2).astype(np.float64)


def flow_view_reference(ast: Ast, align: TokenAlignment) -> np.ndarray:
    """Pairwise lookup of owning-statement pairs in the flow-edge set."""
    owner = _statement_of(ast)
    edges = _flow_edges(ast)
    stmts = [owner[nid] for nid in align.token_to_node]
    n = len(stmts)
    out = np.eye(n)
    for i in range(n):
        for j in range(n):
            if (min(stmts[i], stmts[j]), max(stmts[i], stmts[j])) in edges:
                out[i, j] = 1.0
    return out


def dataflow_view_reference(ast: Ast, align: TokenAlignment) -> np.ndarray:
    """Pairwise equality of identifier names; other tokens link to themselves."""
    names = []
    for nid in align.token_to_node:
        node = ast.nodes[nid]
        names.append(node.value if node.node_type == "Identifier" else None)
    n = len(names)
    out = np.eye(n)
    for i in range(n):
        for j in range(n):
            if names[i] is not None and names[i] == names[j]:
                out[i, j] = 1.0
    return out


def brute_force_lcs(a: list[str], b: list[str]) -> int:
    """Longest common subsequence by enumerating all subsequences of a."""
    best = 0
    for mask in range(1 << len(a)):
        sub = [a[i] for i in range(len(a)) if mask >> i & 1]
        it = iter(b)
        if all(tok in it for tok in sub):
            best = max(best, len(sub))
    return best


def vanilla_attention(
    params: dict,
    prefix: str,
    x: np.ndarray,
    n_heads: int,
    *,
    x_kv: np.ndarray | None = None,
    rel_base: str | None = None,
    seq_idx: np.ndarray | None = None,
    str_idx: np.ndarray | None = None,
    a_mv: np.ndarray | None = None,
    mask_mode: str = "multiply",
    additive_mask: np.ndarray | None = None,
    dropout_p: float = 0.0,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Multi-head scaled-dot attention with the model's weights, one head
    at a time, with the relative-position terms of relative_attention.

    With rel_base, the "{rel_base}.seq_k"/"seq_v" rows indexed by seq_idx
    and, when str_idx is given, the "str_k"/"str_v" rows indexed by str_idx
    are added to keys and values; every head looks its rows up again and
    sums them with einsum. With dropout_p > 0 each head draws its own
    (n_q, n_k) keep mask from rng, in head order.
    """
    x_kv = x if x_kv is None else x_kv
    d_head = params[f"{prefix}.q0"].shape[1]
    rel = []
    if rel_base is not None:
        rel.append((params[f"{rel_base}.seq_k"], params[f"{rel_base}.seq_v"], seq_idx))
        if str_idx is not None:
            rel.append((params[f"{rel_base}.str_k"], params[f"{rel_base}.str_v"], str_idx))
    gate = np.ones((x.shape[0], x_kv.shape[0])) if a_mv is None else a_mv
    mask = np.zeros_like(gate) if additive_mask is None else additive_mask
    if mask_mode == "neg_inf":
        mask = mask + np.where(gate > 0, 0.0, -1e9)
        gate = np.ones_like(gate)
    heads = []
    for h in range(n_heads):
        q = x @ params[f"{prefix}.q{h}"]
        k = x_kv @ params[f"{prefix}.k{h}"]
        v = x_kv @ params[f"{prefix}.v{h}"]
        scores = q @ k.T
        for table_k, _, idx in rel:
            scores = scores + np.einsum("id,ijd->ij", q, table_k[idx])
        scores = scores / np.sqrt(d_head) * gate + mask
        scores = scores - scores.max(axis=1, keepdims=True)
        alpha = np.exp(scores)
        alpha /= alpha.sum(axis=1, keepdims=True)
        if dropout_p > 0.0:
            alpha = alpha * (rng.random(alpha.shape) >= dropout_p) / (1.0 - dropout_p)
        z = alpha @ v
        for _, table_v, idx in rel:
            z = z + np.einsum("ij,ijd->id", alpha, table_v[idx])
        heads.append(z)
    return np.concatenate(heads, axis=1) @ params[f"{prefix}.out_w"] + params[f"{prefix}.out_b"]


def pick_rows(m: np.ndarray, idx: np.ndarray, groups: int) -> np.ndarray:
    """out[h, i, j] = m[i * groups + h, idx[i, j]] for an (n_q * groups,
    rows) m, by fancy indexing."""
    n_q = idx.shape[0]
    picked = m.reshape(n_q, groups, -1)[np.arange(n_q)[:, None], :, idx]  # (n_q, n_k, groups)
    return np.ascontiguousarray(picked.transpose(2, 0, 1))


def sum_rows(w: np.ndarray, idx: np.ndarray, rows: int) -> np.ndarray:
    """(groups, n_q, n_k) weights summed per table row into an (n_q *
    groups, rows) array by np.add.at, which adds in index order: each
    entry sums its keys j in increasing order, from zero."""
    groups, n_q, _ = w.shape
    out = np.zeros((n_q, groups, rows))
    np.add.at(out, (np.arange(n_q)[None, :, None], np.arange(groups)[:, None, None], idx[None]), w)
    return out.reshape(-1, rows)


def relative_scores(q: Tensor, table: Tensor, idx: np.ndarray) -> Tensor:
    """Query-table scores out[h, i, j] = q[i, h] . table[idx[i, j]] as one
    autodiff op: the key-table term of tensor.attention on its own.

    q is (n_q, groups, d), table (rows, d) and idx (n_q, n_k) ids in
    [0, rows); the result is (groups, n_q, n_k). Forward picks from
    q @ table^T; backward sums the gradient per table row, then takes one
    matmul each for q and table.
    """
    if q.data.ndim != 3 or table.data.ndim != 2 or q.shape[2] != table.shape[1]:
        raise ShapeError(f"relative_scores needs (n_q, groups, d) and (rows, d): {q.shape}, {table.shape}")
    n_q, groups, d = q.shape
    rows = table.shape[0]
    idx = _check_ids(idx, rows, "relative-position")
    if idx.ndim != 2 or idx.shape[0] != n_q:
        raise ShapeError(f"relative index {idx.shape} does not have {n_q} query rows")
    q_rows = q.data.reshape(-1, d)
    out_data = pick_rows(q_rows @ table.data.T, idx, groups)

    def backward_fn(g):
        sums = sum_rows(g, idx, rows)
        if q.needs_grad:
            q.accumulate((sums @ table.data).reshape(q.shape))
        if table.needs_grad:
            table.accumulate(sums.T @ q_rows)

    return _make(out_data, (q, table), backward_fn)


def relative_values(alpha: Tensor, table: Tensor, idx: np.ndarray) -> Tensor:
    """Weighted table rows out[i, h] = sum_j alpha[h, i, j] table[idx[i, j]]
    as one autodiff op: the value-table term of tensor.attention on its own.

    alpha is (groups, n_q, n_k), table (rows, d) and idx (n_q, n_k) ids in
    [0, rows); the result is (n_q, groups, d). Forward sums alpha per table
    row, then multiplies by the table; backward picks from the gradient
    times table^T.
    """
    if alpha.data.ndim != 3 or table.data.ndim != 2:
        raise ShapeError(f"relative_values needs (groups, n_q, n_k) and (rows, d): {alpha.shape}, {table.shape}")
    groups, n_q, n_k = alpha.shape
    rows, d = table.shape
    idx = _check_ids(idx, rows, "relative-position")
    if idx.shape != (n_q, n_k):
        raise ShapeError(f"relative index {idx.shape} != weights' ({n_q}, {n_k})")
    sums = sum_rows(alpha.data, idx, rows)
    out_data = (sums @ table.data).reshape(n_q, groups, d)

    def backward_fn(g):
        g_rows = g.reshape(-1, d)
        if alpha.needs_grad:
            alpha.accumulate(pick_rows(g_rows @ table.data.T, idx, groups))
        if table.needs_grad:
            table.accumulate(sums.T @ g_rows)

    return _make(out_data, (alpha, table), backward_fn)


def composed_attention(q, k, v, tables=(), *, additive_mask=None, scale_matrix=None,
                       dropout_p=0.0, rng=None, training=False, capture=None):
    """tensor.attention composed from one autodiff op per step: QK^T,
    relative_scores per table, the scale, the gate (mul), the mask (add),
    softmax_masked, dropout, alpha V and relative_values per table. The
    reference its outputs and gradients must equal bit for bit. The gate
    and mask are ops of their own, so the mask may be per group."""
    e = matmul(transpose(q, (1, 0, 2)), transpose(k, (1, 2, 0)))  # (groups, n_q, n_k)
    for table_k, _, idx in tables:
        e = add(e, relative_scores(q, table_k, idx))
    e = scale(e, 1.0 / math.sqrt(q.shape[2]))
    if scale_matrix is not None:
        e = mul(e, Tensor(np.broadcast_to(scale_matrix, e.shape)))
    if additive_mask is not None:
        e = add(e, Tensor(np.broadcast_to(additive_mask, e.shape)))
    alpha = softmax_masked(e)
    if capture is not None:
        capture.extend(head.copy() for head in alpha.data)
    alpha = dropout(alpha, dropout_p, rng, training)
    z = transpose(matmul(alpha, transpose(v, (1, 0, 2))), (1, 0, 2))  # (n_q, groups, d)
    for _, table_v, idx in tables:
        z = add(z, relative_values(alpha, table_v, idx))
    return z


def composed_relative_attention(
    model,
    prefix,
    x_q,
    x_kv,
    *,
    rel=(),
    a_mv=None,
    additive_mask=None,
    training=False,
    rng=None,
    capture=None,
    offsets,
    kv_offsets=None,
):
    """ScriptModel.relative_attention with composed_attention in place of
    tensor.attention; same signature, so a test can patch it in. It runs a
    group of one example: each per-example argument holds one entry."""
    kv_offsets = offsets if kv_offsets is None else kv_offsets
    assert len(offsets) == len(kv_offsets) == 2, "the composed reference runs a group of one"

    def only(entries):  # the one example's entry of a per-example argument
        (entry,) = entries or [None]
        return entry

    a_mv, additive_mask, rng = only(a_mv), only(additive_mask), only(rng)
    cfg = model.config
    k, v = (model._project(prefix, kind, x_kv) for kind in "kv")
    scale_matrix = None
    if a_mv is not None:
        if cfg.mask_mode == "multiply":
            scale_matrix = a_mv
        else:
            keep = np.where(a_mv > 0, 0.0, NEG_INF)
            additive_mask = keep if additive_mask is None else keep + additive_mask
    q = model._project(prefix, "q", x_q)
    tables = tuple((model.params[f"{t}_k"], model.params[f"{t}_v"], only(idx)) for t, idx in rel)
    z = composed_attention(q, k, v, tables, additive_mask=additive_mask, scale_matrix=scale_matrix,
                           dropout_p=cfg.dropout_p, rng=rng, training=training, capture=capture)
    return _affine(reshape(z, (x_q.shape[0], cfg.d_model)), model.params[f"{prefix}.out_w"],
                   model.params[f"{prefix}.out_b"])


def per_head_leaves(model) -> dict[str, Tensor]:
    """Every head's q, k and v block of model's joined projections as a
    leaf tensor of its own, by param_schema name: the parameters the model
    held before it joined them."""
    return {name: Tensor(arr, requires_grad=True)
            for name, arr in model.state_dict().items() if name not in model.params}


def per_head_project(heads, model, prefix, kind, x, offsets=None):
    """ScriptModel._project through per-head leaf tensors, heads from
    per_head_leaves, concatenated on every call: the reference the joined
    projection must equal bit for bit, gradients included. Bind heads and
    model to patch it in as model._project."""
    cfg = model.config
    w = concat([heads[f"{prefix}.{kind}{h}"] for h in range(cfg.n_heads)], axis=1)
    return reshape(matmul(x, w, offsets), (x.shape[0], cfg.n_heads, cfg.d_head))


def per_head_rows(heads, model, x, name, groups):
    """ScriptModel._heads, the cached step's projection, through per-head
    leaf tensors' arrays, heads from per_head_leaves, concatenated on every
    call. Bind heads and model to patch it in as model._heads."""
    cfg = model.config
    w = np.concatenate([heads[f"{name}{h}"].data for h in range(cfg.n_heads)], axis=1)
    return (x @ w).reshape(x.shape[0] // groups, groups * cfg.n_heads, cfg.d_head)


def gather_relative_scores(q, table, idx):
    """The gather formulation of relative_scores, built from autodiff
    ops: every query row gets its own (n_k, d) copy of the table rows it
    indexes, so out[h, i, j] = q[i, h] . table[idx[i, j]] is one batched
    matmul, (n_q, groups, d) @ (n_q, d, n_k), returned as (groups, n_q, n_k)."""
    r = gather(table, idx)  # (n_q, n_k, d)
    return transpose(matmul(q, transpose(r, (0, 2, 1))), (1, 0, 2))


def gather_relative_values(alpha, table, idx):
    """The gather formulation of relative_values: (groups, n_q, n_k)
    weights times each query row's gathered (n_k, d) table rows, as one
    batched matmul returning (n_q, groups, d)."""
    return matmul(transpose(alpha, (1, 0, 2)), gather(table, idx))


def full_decode_log_probs(model, prefix, state) -> np.ndarray:
    """Log-probabilities of the token after prefix (which starts at BOS),
    from a full decoder pass over the whole prefix, normalised by the
    library's own rule: the reference for beam_search's cached steps."""
    prefix = tuple(int(t) for t in prefix)
    with no_grad():
        logits = model.decode(np.asarray(prefix, dtype=np.int64), state).data[-1:]
    return _log_softmax(logits, [prefix])[0]


def graph_decode_step(model, tgt_in_ids, state, cache: DecoderCache) -> Tensor:
    """ScriptModel.decode's cached step built from autodiff ops, one per
    step, over the cache's arrays as constant tensors: the reference whose
    logits ScriptModel._step must equal bit for bit. It reads and updates
    cache as _step does, and checks nothing."""
    cfg = model.config
    p = model.params
    ids = np.asarray(tgt_in_ids, dtype=np.int64)
    ids = ids.reshape(-1, ids.shape[-1])
    beams, m = ids.shape
    past = cache.length
    sources = len(cache.sources)
    if not cache.cross:
        cache.cross, cache.cross_mask = _graph_cross_keys_values(model, [state] if isinstance(state, Tensor) else state)
    cross_mask = None
    if cache.cross_mask is not None:  # one (n_q, n_k) mask per source and head
        per_group = np.repeat(cache.cross_mask, cfg.n_heads, axis=0)[:, None, :]
        cross_mask = np.broadcast_to(per_group, (sources * cfg.n_heads, m * beams // sources, per_group.shape[-1]))
    rows, project = tied_embedding(p["tgt_embed"], ids.T.reshape(-1))
    y = dropout(scale(rows, math.sqrt(cfg.d_model)), cfg.dropout_p, None, False)
    causal, seq_idx = _self_attention_rows(past, m, cfg.k)
    self_kv = []
    for ly in range(cfg.n_decoder_layers):
        base = f"dec{ly}"
        k, v = (_grouped_project(model, y, f"{base}.self.{kind}", beams) for kind in "kv")
        if past:
            k_past, v_past = cache.self_kv[ly]
            k, v = concat([Tensor(k_past), k], axis=0), concat([Tensor(v_past), v], axis=0)
        self_kv.append((k.data, v.data))
        tables = ((p[f"{base}.seq_k"], p[f"{base}.seq_v"], seq_idx),)
        sa = _eval_attention(model, f"{base}.self", y, k, v, tables, causal)
        y = model._residual(y, sa, f"{base}.ln1", False, None)
        cross_k, cross_v = (Tensor(a) for a in cache.cross[ly])
        ca = _eval_attention(model, f"{base}.cross", y, cross_k, cross_v, (), cross_mask)
        y = model._residual(y, ca, f"{base}.ln2", False, None)
        y = model._residual(y, model._ffn(f"{base}.ffn", y), f"{base}.ln3", False, None)
    cache.self_kv, cache.beams = self_kv, beams
    return add(project(y), p["out_bias"])


def _grouped_project(model, x, name, groups):
    """The rows x of `groups` interleaved sequences, row t * groups + g
    holding position t of sequence g, times parameter name as an autodiff
    op: (positions, groups * heads, d_head), sequence-major on its middle
    axis, as ScriptModel._heads lays out its arrays."""
    cfg = model.config
    return reshape(matmul(x, model.params[name]), (x.shape[0] // groups, groups * cfg.n_heads, cfg.d_head))


def _eval_attention(model, prefix, x, k, v, tables, additive_mask):
    """ScriptModel.relative_attention in eval mode over given keys and
    values: queries x of as many sequences as k holds groups of heads, each
    attending over its own keys, then the output affine."""
    cfg = model.config
    q = _grouped_project(model, x, f"{prefix}.q", k.shape[1] // cfg.n_heads)
    z = attention(q, k, v, tables, additive_mask=additive_mask)
    return _affine(reshape(z, (x.shape[0], cfg.d_model)), model.params[f"{prefix}.out_w"],
                   model.params[f"{prefix}.out_b"])


def _graph_cross_keys_values(model, states):
    """ScriptModel._cross_keys_values built from autodiff ops: each layer's
    cross-attention keys and values, zero-padded by concat, as arrays."""
    lengths = np.array([h.shape[0] for h in states])
    n = int(lengths.max())

    def padded(parts):
        parts = [part if part.shape[0] == n else
                 concat([part, Tensor(np.zeros((n - part.shape[0],) + part.shape[1:]))], axis=0)
                 for part in parts]
        return (parts[0] if len(parts) == 1 else concat(parts, axis=1)).data

    cross = []
    for ly in range(model.config.n_decoder_layers):
        kv = [[_grouped_project(model, h, f"dec{ly}.cross.{kind}", 1) for kind in "kv"] for h in states]
        cross.append((padded([k for k, _ in kv]), padded([v for _, v in kv])))
    mask = None if (lengths == n).all() else np.where(np.arange(n) >= lengths[:, None], NEG_INF, 0.0)
    return cross, mask


def greedy_oracle(model, state, max_len: int) -> list[int]:
    """Step-by-step argmax decoding, ties to the smallest token id."""
    eos = model.config.eos_id
    seq = [model.config.bos_id]
    for _ in range(max_len):
        logp = full_decode_log_probs(model, seq, state)
        nxt = int(np.argmax(logp))
        seq.append(nxt)
        if nxt == eos:
            break
    out = seq[1:]
    if out and out[-1] == eos:
        out.pop()
    return out


def search_to_the_end(model, states, beam_size: int, max_len: int, length_penalty: float = 1.0) -> list[list[int]]:
    """ScriptModel._search with its former stopping rule: a source ends only
    when all of its top beam_size candidates of one step end in EOS, so a
    beam source almost always decodes to max_len. The reference for the
    rule that also ends a source once no live beam can overtake its best
    finished hypothesis; decode one source per call to compare bits."""
    eos, n_vocab = model.config.eos_id, model.config.tgt_vocab_size
    cache = DecoderCache(sources=list(range(len(states))))
    active = [[((model.config.bos_id,), 0.0)] for _ in states]
    finished = [[] for _ in states]
    live = list(range(len(states)))
    for _ in range(max_len):
        if not live:
            break
        width = max(len(active[s]) for s in live)
        seqs = [active[s][min(b, len(active[s]) - 1)][0] for b in range(width) for s in live]
        log_probs = model._beam_log_probs(seqs, states, cache).reshape(width, len(live), n_vocab)
        kept, parents = [], []
        for j, s in enumerate(live):
            beams = active[s]
            scores = np.array([lp for _, lp in beams])[:, None] + log_probs[:len(beams), j]
            top = np.argsort(-scores.ravel(), kind="stable")[:beam_size].tolist()
            ranked = [(i // n_vocab, beams[i // n_vocab][0] + (i % n_vocab,), scores.item(i)) for i in top]
            finished[s] += [(seq, lp) for _, seq, lp in ranked if seq[-1] == eos]
            survivors = sorted((item for item in ranked if item[1][-1] != eos), key=lambda item: item[1])
            active[s] = [(seq, lp) for _, seq, lp in survivors]
            if survivors:
                kept.append(j)
                parents.append([b * len(live) + j for b, _, _ in survivors])
        live = [live[j] for j in kept]
        width = max(map(len, parents), default=0)
        cache.select([rows[min(b, len(rows) - 1)] for b in range(width) for rows in parents], kept)

    def rank(item):
        seq, lp = item
        return -(lp / (len(seq) - 1) ** length_penalty), seq

    summaries = []
    for done, beams in zip(finished, active):
        best = list(min(done + beams, key=rank)[0][1:])
        summaries.append(best[:-1] if best and best[-1] == eos else best)
    return summaries


def _sequence_logprob(model, state, emitted: tuple[int, ...]) -> float:
    prefix = (model.config.bos_id,)
    total = 0.0
    for tok in emitted:
        logp = full_decode_log_probs(model, prefix, state)
        total += float(logp[tok])
        prefix = prefix + (tok,)
    return total


def exhaustive_decode(model, state, max_len: int, length_penalty: float = 1.0) -> list[int]:
    """True argmax over every sequence beam search could produce.

    Candidates: emitted sequences with EOS only in final position (any
    length up to max_len), plus all EOS-free sequences of exactly max_len.
    Scored by logprob / len^penalty with the same lexicographic tie-break
    as beam search.
    """
    eos = model.config.eos_id
    vocab = model.config.tgt_vocab_size
    non_eos = [t for t in range(vocab) if t != eos]
    candidates: list[tuple[int, ...]] = []
    for length in range(1, max_len + 1):
        for body in product(non_eos, repeat=length - 1):
            candidates.append(body + (eos,))
    for body in product(non_eos, repeat=max_len):
        candidates.append(body)

    def key(emitted: tuple[int, ...]):
        lp = _sequence_logprob(model, state, emitted)
        score = lp / (len(emitted) ** length_penalty)
        return (-score, (model.config.bos_id,) + emitted)

    best = min(candidates, key=key)
    out = list(best)
    if out and out[-1] == eos:
        out.pop()
    return out


def finite_difference_grad(f, tensors, epsilon: float = 1e-5):
    """Central finite differences of a scalar-valued tensor function."""
    grads = []
    for t in tensors:
        g = np.zeros_like(t.data)
        for idx in np.ndindex(*t.data.shape):
            orig = t.data[idx]
            t.data[idx] = orig + epsilon
            up = float(f().data)
            t.data[idx] = orig - epsilon
            down = float(f().data)
            t.data[idx] = orig
            g[idx] = (up - down) / (2 * epsilon)
        grads.append(g)
    return grads


def per_example_batch(model, batch, cfg, global_step: int) -> tuple[float, list[float]]:
    """A training batch's forward and backward as one graph per example,
    each example run as a group of one: each example's loss over the
    batch size is back-propagated before the next example is built, so
    every parameter sums the examples' gradients in batch order, and each
    example draws dropout from its own (seed, step, example index)
    generator. Returns the batch loss, summed as the training loop sums
    it, and each example's loss: the reference a batch run as groups must
    equal bit for bit."""
    model.zero_grad()
    b = len(batch)
    batch_loss, losses = 0.0, []
    for i, index in enumerate(batch.example_indices):
        loss = model.forward_loss(
            batch.src_ids[i, : batch.src_lens[i]],
            batch.bundles[i],
            batch.tgt_ids[i, : batch.tgt_lens[i]],
            training=True,
            rng=_example_rng(cfg.seed, global_step, index),
        )
        value = float(loss.data)
        backward(scale(loss, 1.0 / b))
        batch_loss += value / b
        losses.append(value)
    return batch_loss, losses


def evaluate_token_accuracy(model, split) -> float:
    """Teacher-forced next-token accuracy over a split, one example at a
    time: each example is encoded alone and decoded over its whole
    reference prefix in one call."""
    correct = 0
    total = 0
    with no_grad():
        for ex in split:
            state = model.script_encoder(ex.src_ids, ex.bundle)
            logits = model.decode(ex.tgt_ids[:-1], state)
            pred = logits.data.argmax(axis=1)
            correct += int((pred == ex.tgt_ids[1:]).sum())
            total += len(ex.tgt_ids) - 1
    return correct / total if total else 0.0
