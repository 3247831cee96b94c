"""Typed syntax trees, interchange loading, traversal order and leaf tokens.

Trees are the source of every structural signal downstream: node ids are
assigned in bracketed-traversal first-visit order (preorder), leaves carry
the token values, and the model's code-token stream is generated from the
leaves so that every token maps back to exactly one tree node.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence

from .errors import FormatError, TreeError, parse_json, read_text

STRING_LEAF_TYPES = frozenset({"StringLiteral"})
NUMBER_LEAF_TYPES = frozenset({"NumberLiteral"})

STR_SENTINEL = "STR"
NUM_SENTINEL = "NUM"

_NUMBER_RE = re.compile(r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?\Z")
_CAMEL_RE = re.compile(
    r".+?(?:(?<=[a-z0-9])(?=[A-Z])|(?<=[A-Z])(?=[A-Z][a-z])|\Z)"
)

@dataclass(frozen=True)
class AstNode:
    """One tree node; leaves carry a value, interior nodes only a type."""

    id: int
    node_type: str
    value: str | None
    children: tuple[int, ...]

    @property
    def is_leaf(self) -> bool:
        return not self.children


class Ast:
    """Immutable tree over AstNodes with canonical preorder ids.

    Node 0 is the root, ids are dense, and id order equals the first-visit
    order of the bracketed traversal, so every derived matrix shares one
    canonical node ordering. The constructor validates the tree and walks
    it once, recording each node's parent id (-1 for the root) in `parent`
    and its distance from the root in `depth`. Ids out of preorder are
    reassigned in the walk's order; given nodes already in preorder are
    kept as they are.
    """

    __slots__ = ("nodes", "leaf_order", "parent", "depth")

    def __init__(self, nodes: Sequence[AstNode]):
        nodes = tuple(nodes)
        order, parent, depth = _walk(nodes)
        # checked before renumbering, so that a message names the given id
        for node in nodes:
            if node.is_leaf and node.value is None:
                raise TreeError(f"leaf node {node.id} has no value")
            if not node.is_leaf and node.value is not None:
                raise TreeError(f"interior node {node.id} carries a value")
        if order != list(range(len(nodes))):
            nodes, parent, depth = _renumber(nodes, order, parent, depth)
        self.nodes = nodes
        self.leaf_order = tuple(n.id for n in nodes if n.is_leaf)
        self.parent = tuple(parent)
        self.depth = tuple(depth)

    def __len__(self) -> int:
        return len(self.nodes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Ast):
            return NotImplemented
        return self.nodes == other.nodes

    def __hash__(self) -> int:
        return hash(self.nodes)


def _walk(nodes: tuple[AstNode, ...]) -> tuple[list[int], list[int], list[int]]:
    """Check dense ids and parent counts, then walk from the root once.

    Returns the preorder of the ids and each node's parent (-1 for the
    root) and depth. The root has no parent and every other node exactly
    one, so the walk pushes each node at most once and ends; a node it
    misses, a cycle detached from the root included, is unreachable.
    """
    if not nodes:
        raise TreeError("empty node list")
    n = len(nodes)
    for i, node in enumerate(nodes):
        if node.id != i:
            raise TreeError(f"node ids are not dense from 0 (position {i} has id {node.id})")
    parent = [-1] * n
    parent_count = [0] * n
    for node in nodes:
        for child in node.children:
            if not 0 <= child < n:
                raise TreeError(f"node {node.id} references missing child {child}")
            if child == node.id:
                raise TreeError(f"node {node.id} lists itself as a child")
            parent[child] = node.id
            parent_count[child] += 1
    if parent_count[0] != 0:
        raise TreeError("node 0 must be the root but has a parent")
    for nid in range(1, n):
        if parent_count[nid] == 0:
            raise TreeError(f"node {nid} is an orphan")
        if parent_count[nid] > 1:
            raise TreeError(f"node {nid} has multiple parents")
    order: list[int] = []
    depth = [0] * n
    stack = [0]
    while stack:
        nid = stack.pop()
        order.append(nid)
        for child in nodes[nid].children:
            depth[child] = depth[nid] + 1
        stack.extend(reversed(nodes[nid].children))
    if len(order) < n:
        missing = min(set(range(n)).difference(order))
        raise TreeError(f"node {missing} is unreachable from the root")
    return order, parent, depth


def _renumber(
    nodes: tuple[AstNode, ...], order: list[int], parent: list[int], depth: list[int]
) -> tuple[tuple[AstNode, ...], list[int], list[int]]:
    """Nodes, parents and depths with ids reassigned in the given order."""
    new_id = [0] * len(order)
    for new, old in enumerate(order):
        new_id[old] = new
    renumbered = tuple(
        AstNode(
            id=new,
            node_type=nodes[old].node_type,
            value=nodes[old].value,
            children=tuple(new_id[c] for c in nodes[old].children),
        )
        for new, old in enumerate(order)
    )
    # order[0] is the root, whose parent stays -1
    new_parent = [-1] + [new_id[parent[old]] for old in order[1:]]
    return renumbered, new_parent, [depth[old] for old in order]


@dataclass(frozen=True)
class TokenAlignment:
    """Maps each model-input token index to the AST leaf it came from."""

    token_to_node: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.token_to_node)

    def __getitem__(self, idx: int) -> int:
        return self.token_to_node[idx]


def ast_to_json(ast: Ast) -> dict:
    """Serialize to the interchange schema (dict form)."""
    nodes = []
    for node in ast.nodes:
        entry: dict = {"id": node.id, "type": node.node_type, "children": list(node.children)}
        if node.value is not None:
            entry["value"] = node.value
        nodes.append(entry)
    return {"nodes": nodes}


_NODE_KEYS = {"id", "type", "value", "children"}


def ast_from_json(obj: object) -> Ast:
    """Build an Ast from an interchange document, re-validating everything.

    Ids in the file must be dense from 0 but may be in any order; they are
    renumbered to canonical preorder only when they are not already in it.
    """
    if not isinstance(obj, dict) or set(obj.keys()) != {"nodes"}:
        raise FormatError("interchange document must be an object with a single 'nodes' key")
    raw_nodes = obj["nodes"]
    if not isinstance(raw_nodes, list) or not raw_nodes:
        raise FormatError("'nodes' must be a non-empty list")
    parsed: list[AstNode] = []
    seen_ids = set()
    for raw in raw_nodes:
        if not isinstance(raw, dict):
            raise FormatError("each node must be an object")
        extra = set(raw.keys()) - _NODE_KEYS
        if extra:
            raise FormatError(f"unknown node keys: {sorted(extra)}")
        if "id" not in raw or "type" not in raw or "children" not in raw:
            raise FormatError("node requires 'id', 'type' and 'children'")
        nid, ntype, children = raw["id"], raw["type"], raw["children"]
        if not isinstance(nid, int) or isinstance(nid, bool):
            raise FormatError("node id must be an integer")
        if nid in seen_ids:
            raise FormatError(f"duplicate node id {nid}")
        seen_ids.add(nid)
        if not isinstance(ntype, str):
            raise FormatError("node type must be a string")
        if not isinstance(children, list) or any(
            not isinstance(c, int) or isinstance(c, bool) for c in children
        ):
            raise FormatError("children must be a list of integer ids")
        value = raw.get("value")
        if value is not None and not isinstance(value, str):
            raise FormatError("value must be a string when present")
        parsed.append(AstNode(id=nid, node_type=ntype, value=value, children=tuple(children)))
    if seen_ids != set(range(len(parsed))):
        raise FormatError("node ids must be dense from 0")
    parsed.sort(key=lambda node: node.id)
    return Ast(parsed)


def load_ast_json(path) -> Ast:
    """Read one interchange JSON document from a file path."""
    return ast_from_json(parse_json(read_text(path)))


def sbt_sequence(ast: Ast) -> list[str]:
    """Bracketed traversal: '(', label, <children...>, ')', label per node.

    Labels are leaf values for leaves and node types otherwise; first
    occurrence order of labels defines the canonical node id order.
    """
    out: list[str] = []
    # (node id, expanded flag) to avoid recursion on deep trees
    stack: list[tuple[int, bool]] = [(0, False)]
    while stack:
        nid, expanded = stack.pop()
        node = ast.nodes[nid]
        label = node.value if node.is_leaf else node.node_type
        if expanded:
            out.append(")")
            out.append(label)
        else:
            out.append("(")
            out.append(label)
            stack.append((nid, True))
            stack.extend((c, False) for c in reversed(node.children))
    return out


def split_identifier(name: str) -> list[str]:
    """CamelCase / snake_case subtoken split, lowercased.

    Digits stay attached to their preceding segment ('conv2d' stays whole);
    a name that yields no parts falls back to its lowercased self.
    """
    parts: list[str] = []
    for chunk in name.split("_"):
        if not chunk:
            continue
        parts.extend(m.group(0) for m in _CAMEL_RE.finditer(chunk))
    parts = [p.lower() for p in parts if p]
    return parts if parts else [name.lower()]


def _leaf_sentinel(node: AstNode) -> str | None:
    if node.node_type in STRING_LEAF_TYPES:
        return STR_SENTINEL
    if node.node_type in NUMBER_LEAF_TYPES:
        return NUM_SENTINEL
    value = node.value or ""
    if _NUMBER_RE.match(value):
        return NUM_SENTINEL
    if len(value) >= 2 and value[0] == value[-1] and value[0] in "\"'":
        return STR_SENTINEL
    return None


def leaf_tokens(ast: Ast, limit: int | None = None) -> tuple[list[str], TokenAlignment]:
    """Token stream from leaves in document order, plus its alignment.

    String/number leaves become the STR/NUM sentinels; identifier leaves are
    subtoken-split, with every subtoken aligned to the same leaf id. With a
    limit, leaves past the first limit tokens are not tokenised: the result
    is the first limit tokens of the unlimited stream.
    """
    tokens: list[str] = []
    mapping: list[int] = []
    for leaf_id in ast.leaf_order:
        if limit is not None and len(tokens) >= limit:
            break
        node = ast.nodes[leaf_id]
        sentinel = _leaf_sentinel(node)
        parts = [sentinel] if sentinel is not None else split_identifier(node.value or "")
        tokens.extend(parts)
        mapping.extend([leaf_id] * len(parts))
    return tokens[:limit], TokenAlignment(tuple(mapping[:limit]))
