"""Structural position signals derived from the tree.

Everything the encoder needs about structure is computed here as plain
numpy arrays, passed from stage to stage with no wrapper: tree
distances, the row-normalized reciprocal weighting used by the
distance-weighted layer, clipped distance buckets and clipped sequential
offsets for relative attention, and the weighted multi-view relation
matrix that gates attention.

Work is done in token space: distances are computed among the distinct
leaves of the kept tokens only, then gathered to token level through the
leaf alignment, so subtokens of one identifier share that leaf's
structural relations and sit at distance 0 from each other.
`encode_structure` never builds a matrix sized by the whole tree, so its
memory is O(len(ast) + tokens^2), and it builds each token matrix once,
in the dtype it is stored in. The relation views are gathers and
equality tests over per-token parent, statement and name ids.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .astcore import Ast, TokenAlignment
from .errors import ConfigError

# Default (alpha, beta, gamma) weights of the AST, flow and data-flow views.
DEFAULT_VIEW_WEIGHTS: tuple[float, float, float] = (1 / 3, 1 / 3, 1 / 3)
# Default structural clipping threshold l (ModelConfig.l, bucket ids in [0, l]).
DEFAULT_DISTANCE_CLIP = 8

STATEMENT_TYPES = frozenset(
    {
        "IfStatement",
        "WhileStatement",
        "ReturnStatement",
        "Assignment",
        "ExpressionStatement",
        "FunctionDecl",
    }
)


def floyd_apsp(ast: Ast, nodes: Sequence[int] | np.ndarray | None = None) -> np.ndarray:
    """Hop counts among the given node ids, every node by default, as a
    symmetric (k, k) float64 array with a zero diagonal.

    Ids must be strictly increasing, that is, in preorder. d(a, b) is
    depth(a) + depth(b) - 2 depth(lca(a, b)), and preorder gives the lca
    depths: over the sorted ids, the lca depth of ids[i] and ids[j] is the
    minimum over the adjacent pairs between them, and the lca of an
    adjacent pair a < b is b's nearest ancestor with id <= a. The parent
    walks that find them cover each tree edge at most once, so the pass
    costs O(len(ast) + k^2) for k ids. Integer arithmetic in float64 keeps
    the result exact. The name is kept from the Floyd-Warshall pass this
    replaced, since callers and tools refer to it.
    """
    n = len(ast)
    ids = np.arange(n) if nodes is None else np.asarray(nodes, dtype=np.int64)
    if ids.ndim != 1 or np.any(np.diff(ids) <= 0) or (ids.size and (ids[0] < 0 or ids[-1] >= n)):
        raise ValueError("node ids must be strictly increasing ids of the tree")
    parent, depth = ast.parent, ast.depth
    meet = []
    for a, b in zip(ids[:-1].tolist(), ids[1:].tolist()):
        while b > a:
            b = parent[b]
        meet.append(depth[b])
    k = ids.size
    own = np.asarray(depth, dtype=np.float64)[ids]
    # row i holds own[i] on the diagonal and meet[j-1] right of it; running
    # minima then give the lca depth of every pair i <= j
    lca = np.where(np.arange(k)[:, None] < np.arange(k), np.r_[np.inf, meet], np.inf)
    np.fill_diagonal(lca, own)
    lca = np.minimum.accumulate(lca, axis=1)
    lca = np.minimum(lca, lca.T)
    return own[:, None] + own[None, :] - 2.0 * lca


def normalize(d: np.ndarray) -> np.ndarray:
    """Reciprocal distances, normalized per row over non-zero entries.

    m_bar(i,j) = (1/d(i,j)) / sum_z over {z: d(i,z) != 0} (1/d(i,z)) when
    d(i,j) != 0, else 0. A row with no non-zero entry (single-token input)
    stays all zero rather than raising.
    """
    weights = np.zeros(d.shape)
    np.divide(1.0, d, out=weights, where=d > 0)
    row_sums = weights.sum(axis=1, keepdims=True)
    return np.divide(weights, row_sums, out=np.zeros_like(weights), where=row_sums > 0)


def bucketize(d: np.ndarray, l: int) -> np.ndarray:
    """Clip distances elementwise to integer ids min(d, l) in [0, l]."""
    if not isinstance(l, int) or isinstance(l, bool) or l < 1:
        raise ConfigError(f"clip threshold must be a positive integer, got {l!r}")
    return np.minimum(d, l).astype(np.int64, copy=False)


def sequential_relpos(n: int, k: int) -> np.ndarray:
    """Signed sequential offsets clamp(j - i, -k, k), shape (n, n)."""
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise ConfigError(f"offset window must be a positive integer, got {k!r}")
    offsets = np.arange(n)[None, :] - np.arange(n)[:, None]
    return np.clip(offsets, -k, k).astype(np.int64)


def _statement_of(ast: Ast) -> list[int]:
    """Nearest enclosing statement-like node per node (self counts); the
    root is the fallback owner for top-level constructs. In preorder a
    parent's owner is set before its children's."""
    owner = [0] * len(ast)
    for node, parent in zip(ast.nodes, ast.parent):
        if node.node_type in STATEMENT_TYPES:
            owner[node.id] = node.id
        elif parent >= 0:
            owner[node.id] = owner[parent]
    return owner


def _flow_edges(ast: Ast) -> set[tuple[int, int]]:
    """Undirected pairs of statement nodes adjacent in control flow:
    consecutive statements in a block, condition to branch-body entry,
    and loop-body tail back to the loop condition."""
    edges: set[tuple[int, int]] = set()

    def add(a: int, b: int) -> None:
        if a != b:
            edges.add((min(a, b), max(a, b)))

    def entry(branch_id: int) -> int:
        node = ast.nodes[branch_id]
        if node.node_type == "Block" and node.children:
            return node.children[0]
        return branch_id

    # interchange trees may use these types with any shape: a missing
    # branch or body slot adds no edge
    for node in ast.nodes:
        if node.node_type in ("Block", "Program"):
            for left, right in zip(node.children, node.children[1:]):
                add(left, right)
        elif node.node_type == "IfStatement":
            for branch in node.children[1:3]:
                add(node.id, entry(branch))
        elif node.node_type == "WhileStatement":
            for body in node.children[1:2]:
                add(node.id, entry(body))
                tail = ast.nodes[body].children[-1] if ast.nodes[body].children else body
                add(tail, node.id)
    return edges


def ast_view(ast: Ast, align: TokenAlignment) -> np.ndarray:
    """Token-pair relation: 1 when the aligned leaves are at most two hops
    apart in the tree (same leaf, or siblings under one parent)."""
    leaf_parents = np.asarray([ast.parent[nid] for nid in align.token_to_node])
    return np.equal.outer(leaf_parents, leaf_parents).astype(np.float64)


def flow_view(ast: Ast, align: TokenAlignment) -> np.ndarray:
    """Token-pair relation: 1 when the owning statements are control-flow
    adjacent; the diagonal is forced to 1."""
    owner = _statement_of(ast)
    stmts = [owner[nid] for nid in align.token_to_node]
    position = {s: i for i, s in enumerate(dict.fromkeys(stmts))}
    adjacent = np.zeros((len(position), len(position)))
    for a, b in _flow_edges(ast):
        if a in position and b in position:
            adjacent[position[a], position[b]] = adjacent[position[b], position[a]] = 1.0
    idx = np.asarray([position[s] for s in stmts], dtype=np.int64)
    out = adjacent[np.ix_(idx, idx)]
    np.fill_diagonal(out, 1.0)
    return out


def dataflow_view(ast: Ast, align: TokenAlignment) -> np.ndarray:
    """Token-pair relation: 1 when both tokens are occurrences of the same
    identifier name; the diagonal is forced to 1."""
    codes: dict[str, int] = {}
    name_ids = np.empty(len(align), dtype=np.int64)
    for i, nid in enumerate(align.token_to_node):
        node = ast.nodes[nid]
        if node.node_type == "Identifier":
            name_ids[i] = codes.setdefault(node.value, len(codes))
        else:
            name_ids[i] = -1 - i  # an id no other token has
    return np.equal.outer(name_ids, name_ids).astype(np.float64)


def multiview(
    ast: Ast,
    align: TokenAlignment,
    weights: tuple[float, float, float] = DEFAULT_VIEW_WEIGHTS,
) -> np.ndarray:
    """Weighted sum of the three relation views at token level.

    Weights must be non-negative, not all zero and of finite sum; every
    view has a unit diagonal, so the sum's diagonal equals
    alpha + beta + gamma and bounds every entry.
    """
    alpha, beta, gamma = (float(w) for w in weights)
    if not np.isfinite(alpha + beta + gamma):
        raise ConfigError(f"view weights and their sum must be finite, got {weights!r}")
    if min(alpha, beta, gamma) < 0.0:
        raise ConfigError(f"view weights must be non-negative, got {weights!r}")
    if alpha + beta + gamma == 0.0:
        raise ConfigError("view weights must not all be zero")
    a_ast, a_fl, a_dp = ast_view(ast, align), flow_view(ast, align), dataflow_view(ast, align)
    return alpha * a_ast + beta * a_fl + gamma * a_dp


@dataclass(frozen=True)
class StructuralEncodings:
    """Token-level structural inputs consumed by the encoder.

    distances:        tree hop counts between token pairs, (n, n) int
    distance_weights: row-normalized reciprocal tree distances, (n, n) float
    bucket_ids:       clipped tree-distance buckets, (n, n) int in [0, clip]
    multiview:        weighted relation matrix with diagonal alpha+beta+gamma
    """

    distances: np.ndarray
    distance_weights: np.ndarray
    bucket_ids: np.ndarray
    multiview: np.ndarray


def encode_structure(
    ast: Ast,
    align: TokenAlignment,
    distance_clip: int = DEFAULT_DISTANCE_CLIP,
    view_weights: tuple[float, float, float] = DEFAULT_VIEW_WEIGHTS,
) -> StructuralEncodings:
    """Compute every structural input for one example in token space.

    The distance weights are normalized from the clipped distances, so
    every matrix the model consumes depends on a raw distance only through
    min(d, distance_clip); distances at or beyond the threshold are
    interchangeable.
    """
    leaves, rows = np.unique(np.asarray(align.token_to_node, dtype=np.int64), return_inverse=True)
    distances = floyd_apsp(ast, leaves).astype(np.int64)[np.ix_(rows, rows)]
    bucket_ids = bucketize(distances, distance_clip)
    return StructuralEncodings(
        distances=distances,
        distance_weights=normalize(bucket_ids),
        bucket_ids=bucket_ids,
        multiview=multiview(ast, align, view_weights),
    )
