"""Output checks for the benchmark.

Each check compares scriptsum's output with a computation made here, by
other means (breadth-first search instead of Floyd, a step-by-step argmax
over full decoder logits instead of beam bookkeeping, closed-form metric
values), or with a property the method must have. A check returns a list
of problems; an empty list means the output passed. None of them compare
against recorded outputs of the program.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

TOL = 1e-12


def bfs_distances(children: list[tuple[int, ...]]) -> np.ndarray:
    """All-pairs hop counts of a tree given as per-node child lists."""
    n = len(children)
    adjacency: list[list[int]] = [[] for _ in range(n)]
    for parent, kids in enumerate(children):
        for child in kids:
            adjacency[parent].append(child)
            adjacency[child].append(parent)
    dist = np.full((n, n), -1, dtype=np.int64)
    for start in range(n):
        row = dist[start]
        row[start] = 0
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in adjacency[u]:
                if row[v] < 0:
                    row[v] = row[u] + 1
                    queue.append(v)
    return dist


def expected_distance_weights(distances: np.ndarray, clip: int) -> np.ndarray:
    """Reciprocal clipped distances, each row normalised over its non-zero
    entries: the normalised position matrix of the SCRIPT paper."""
    clipped = np.minimum(distances, clip).astype(np.float64)
    weights = np.zeros_like(clipped)
    np.divide(1.0, clipped, out=weights, where=clipped > 0)
    sums = weights.sum(axis=1, keepdims=True)
    return np.divide(weights, sums, out=np.zeros_like(weights), where=sums > 0)


def document_leaves(children: list[tuple[int, ...]]) -> list[int]:
    """Leaf node ids in left-to-right document order."""
    out = []
    stack = [0]
    while stack:
        nid = stack.pop()
        if children[nid]:
            stack.extend(reversed(children[nid]))
        else:
            out.append(nid)
    return out


def check_structure(
    children: list[tuple[int, ...]],
    token_to_node: list[int],
    bundle,
    clip: int,
    view_sum: float,
    cap: int,
) -> list[str]:
    """Ingest checks on one example's structural matrices.

    token_to_node maps every code token before truncation to its leaf; the
    matrices may be cut to the first `cap` tokens.
    """
    problems = []
    runs = [nid for i, nid in enumerate(token_to_node) if i == 0 or token_to_node[i - 1] != nid]
    if runs != document_leaves(children):
        problems.append("token alignment does not follow the leaves in document order")
    n_full = len(token_to_node)
    n = min(n_full, cap)
    for name in ("distances", "distance_weights", "bucket_ids", "multiview"):
        shape = getattr(bundle, name).shape
        if shape != (n, n):
            problems.append(f"{name} has shape {shape}, expected ({n}, {n})")
    if problems:
        return problems
    full = bfs_distances(children)[np.ix_(token_to_node, token_to_node)]
    expect = full[:n, :n]
    if not np.array_equal(bundle.distances, expect):
        bad = int(np.sum(bundle.distances != expect))
        problems.append(f"token distances differ from breadth-first search in {bad} entries")
    if not np.array_equal(bundle.bucket_ids, np.minimum(expect, clip)):
        problems.append("bucket_ids differ from min(d, clip)")
    if n > 1:
        # Within the cap the rows must sum to 1. Over it, data.example_from_record
        # cuts the rows after normalising them over the whole input, so they
        # sum to less than 1 (a fault); rows normalised after the cut pass too.
        allowed = [expected_distance_weights(full, clip)[:n, :n]]
        if n_full > cap:
            allowed.append(expected_distance_weights(expect, clip))
        if all(np.max(np.abs(bundle.distance_weights - w)) > TOL for w in allowed):
            problems.append("distance_weights differ from the row-normalised reciprocal distances")
        if n_full <= cap and np.max(np.abs(bundle.distance_weights.sum(axis=1) - 1.0)) > 1e-9:
            problems.append("a distance_weights row does not sum to 1")
    mv = bundle.multiview
    if not np.array_equal(mv, mv.T):
        problems.append("multiview is not symmetric")
    if np.max(np.abs(np.diagonal(mv) - view_sum)) > TOL:
        problems.append("multiview diagonal differs from alpha + beta + gamma")
    return problems


def check_cap(n_tokens_before: int, code_tokens, bundle, cap: int) -> list[str]:
    """A record over the cap yields exactly `cap` tokens and cap x cap matrices."""
    if n_tokens_before <= cap:
        return []
    problems = []
    if len(code_tokens) != cap:
        problems.append(f"{len(code_tokens)} tokens kept from a {n_tokens_before}-token record")
    for name in ("distances", "distance_weights", "bucket_ids", "multiview"):
        if getattr(bundle, name).shape != (cap, cap):
            problems.append(f"{name} of a truncated record is not {cap}x{cap}")
    return problems


def check_losses(train_losses: list[float], valid_losses: list[float], must_fall: bool) -> list[str]:
    problems = []
    if not all(math.isfinite(x) for x in train_losses + valid_losses):
        problems.append("a training or validation loss is not finite")
    if must_fall and not train_losses[-1] < train_losses[0]:
        problems.append(
            f"last epoch's training loss {train_losses[-1]!r} is not below the first's {train_losses[0]!r}"
        )
    return problems


def check_state_equal(loaded: dict, state: dict) -> list[str]:
    """Every model parameter read back from a checkpoint equals the model's."""
    missing = sorted(set(state) - set(loaded))
    if missing:
        return [f"checkpoint lacks {missing[:3]}"]
    bad = [name for name in state if not np.array_equal(loaded[name], state[name])]
    return [f"checkpoint differs from the model in {bad[:3]}"] if bad else []


def argmax_decode(next_logits, bos: int, eos: int, max_len: int) -> list[int]:
    """Greedy decoding by hand: at each step the arg max of the last row of
    the full decoder logits, ties to the smallest id; stops at EOS."""
    prefix = [bos]
    for _ in range(max_len):
        logits = next_logits(prefix)
        best = int(np.flatnonzero(logits == logits.max())[0])
        prefix.append(best)
        if best == eos:
            break
    out = prefix[1:]
    if out and out[-1] == eos:
        out.pop()
    return out


def check_greedy(ids: list[int], oracle_ids: list[int]) -> list[str]:
    if list(ids) != list(oracle_ids):
        return [f"greedy output {list(ids)[:8]}... differs from the step-by-step argmax"]
    return []


def check_same(first: list[int], second: list[int], what: str) -> list[str]:
    return [] if list(first) == list(second) else [f"{what}: {list(first)[:8]} != {list(second)[:8]}"]


def check_beam_output(ids: list[int], special: tuple[int, ...], max_len: int) -> list[str]:
    problems = []
    held = sorted({i for i in ids if i in special})
    if held:
        problems.append(f"a beam output holds the special ids {held}")
    if len(ids) > max_len:
        problems.append(f"a beam output has {len(ids)} tokens, more than {max_len}")
    return problems


def check_scores(pair_scores: list[dict]) -> list[str]:
    for scores in pair_scores:
        for name, value in scores.items():
            if not 0.0 <= value <= 1.0:
                return [f"{name} score {value!r} outside [0, 1]"]
    return []


def check_self_scores(m: int, bleu: float, rouge: float, meteor: float) -> list[str]:
    """Scores of an m-token reference against itself."""
    problems = []
    if bleu != 1.0:
        problems.append(f"BLEU-4 of a reference against itself is {bleu!r}")
    if rouge != 1.0:
        problems.append(f"ROUGE-L of a reference against itself is {rouge!r}")
    expect = 1.0 - 0.5 / m**3
    if abs(meteor - expect) > TOL:
        problems.append(f"METEOR of a {m}-token reference against itself is {meteor!r}, not {expect!r}")
    return problems
