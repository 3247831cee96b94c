"""Summary-quality metrics: sentence BLEU-4, ROUGE-L, and METEOR.

All three operate on lowercased, whitespace-split token lists and accept
multiple references with best-match semantics (the reported score is the
maximum over references, so adding a reference can never lower it).

BLEU-4 is sentence-level with add-one smoothing on the n-gram counts for
n >= 2 and the multiplicative brevity penalty exp(1 - r/c) when the
candidate is shorter than the reference. ROUGE-L is the LCS-based F1.
METEOR uses exact unigram matching only (no stemming or synonyms): the
alignment maximizes matches and then minimizes chunks, and the score is
F_mean * (1 - 0.5 * (chunks/matches)^3) with F_mean = 10PR / (R + 9P).

Corpus reports average per-pair scores and can split them into exclusive,
exhaustive length buckets.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Sequence

from .errors import BucketError

# Node budget for the exact chunk-minimizing METEOR alignment search.
# Inputs with heavy token repetition beyond this fall back to a greedy
# alignment; summary-scale sentences stay exact.
_ALIGN_NODE_BUDGET = 200_000


@dataclass(frozen=True)
class EvalPair:
    """One candidate against one or more references, as token lists."""

    candidate: list[str]
    references: list[list[str]]

    def __post_init__(self):
        if not self.references:
            raise ValueError("EvalPair requires at least one reference")


def _ngram_counts(tokens: Sequence[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def _bleu4_single(candidate: Sequence[str], reference: Sequence[str]) -> float:
    c = len(candidate)
    r = len(reference)
    if c == 0:
        return 0.0
    log_sum = 0.0
    for n in range(1, 5):
        cand_counts = _ngram_counts(candidate, n)
        ref_counts = _ngram_counts(reference, n)
        total = max(0, c - n + 1)
        matched = sum(min(k, ref_counts[g]) for g, k in cand_counts.items())
        if n == 1:
            if matched == 0:
                return 0.0
            precision = matched / total
        else:
            precision = (matched + 1) / (total + 1)
        log_sum += 0.25 * math.log(precision)
    brevity = math.exp(1.0 - r / c) if c < r else 1.0
    return brevity * math.exp(log_sum)


def bleu4(pair: EvalPair) -> float:
    """Smoothed sentence BLEU-4; best score over the references."""
    return max(_bleu4_single(pair.candidate, ref) for ref in pair.references)


def lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    """Longest common subsequence length by dynamic programming."""
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        curr = [0] * (len(b) + 1)
        for j, y in enumerate(b, start=1):
            if x == y:
                curr[j] = prev[j - 1] + 1
            else:
                curr[j] = max(prev[j], curr[j - 1])
        prev = curr
    return prev[-1]


def _rouge_l_single(candidate: Sequence[str], reference: Sequence[str]) -> float:
    lcs = lcs_length(candidate, reference)
    if lcs == 0:
        return 0.0
    p = lcs / len(candidate)
    r = lcs / len(reference)
    return 2 * p * r / (p + r)


def rouge_l(pair: EvalPair) -> float:
    """LCS-based F1; best score over the references."""
    return max(_rouge_l_single(pair.candidate, ref) for ref in pair.references)


def _match_quota(candidate: Sequence[str], reference: Sequence[str]) -> dict[str, int]:
    cand_counts = Counter(candidate)
    ref_counts = Counter(reference)
    return {t: min(k, ref_counts[t]) for t, k in cand_counts.items() if t in ref_counts}


class _BudgetExceeded(Exception):
    pass


def _min_chunks_exact(candidate: Sequence[str], reference: Sequence[str], quota: dict[str, int]) -> int:
    """Minimum chunk count over all maximum-cardinality exact alignments.

    Depth-first search over candidate positions with memoization on
    (position, previous matched reference index, used reference positions).
    Raises _BudgetExceeded when the state count passes the node budget.
    """
    ref_positions: dict[str, list[int]] = defaultdict(list)
    for j, t in enumerate(reference):
        ref_positions[t].append(j)
    n = len(candidate)
    # suffix_counts[i][t] = occurrences of t in candidate[i:]
    suffix_counts: list[Counter] = [Counter() for _ in range(n + 1)]
    for i in range(n - 1, -1, -1):
        suffix_counts[i] = suffix_counts[i + 1].copy()
        suffix_counts[i][candidate[i]] += 1

    memo: dict[tuple, int] = {}
    nodes = 0

    def matched_of(used: frozenset, token: str) -> int:
        return sum(1 for j in ref_positions[token] if j in used)

    def solve(i: int, prev_j: int, used: frozenset) -> int:
        nonlocal nodes
        nodes += 1
        if nodes > _ALIGN_NODE_BUDGET:
            raise _BudgetExceeded
        if i == n:
            return 0
        key = (i, prev_j, used)
        if key in memo:
            return memo[key]
        token = candidate[i]
        best = math.inf
        need = quota.get(token, 0)
        have = matched_of(used, token) if need else 0
        # Option 1: leave candidate[i] unmatched if later occurrences can
        # still fill this token's quota.
        if need == 0 or suffix_counts[i + 1][token] >= need - have:
            best = solve(i + 1, -1, used)
        # Option 2: match candidate[i] to each free reference slot.
        if need and have < need:
            for j in ref_positions[token]:
                if j in used:
                    continue
                cost = 0 if (prev_j >= 0 and j == prev_j + 1) else 1
                best = min(best, cost + solve(i + 1, j, used | {j}))
        memo[key] = int(best)
        return int(best)

    return solve(0, -1, frozenset())


def _min_chunks_greedy(candidate: Sequence[str], reference: Sequence[str], quota: dict[str, int]) -> int:
    """Deterministic fallback: extend the current chunk when possible,
    otherwise take the lowest free reference position."""
    ref_positions: dict[str, list[int]] = defaultdict(list)
    for j, t in enumerate(reference):
        ref_positions[t].append(j)
    remaining = dict(quota)
    used: set[int] = set()
    chunks = 0
    prev_j = -2
    for i, token in enumerate(candidate):
        need = remaining.get(token, 0)
        if need <= 0:
            prev_j = -2
            continue
        free = [j for j in ref_positions[token] if j not in used]
        if not free:
            prev_j = -2
            continue
        j = prev_j + 1 if (prev_j + 1) in free else free[0]
        used.add(j)
        remaining[token] = need - 1
        if j != prev_j + 1:
            chunks += 1
        prev_j = j
    return chunks


def _meteor_single(candidate: Sequence[str], reference: Sequence[str]) -> float:
    quota = _match_quota(candidate, reference)
    matches = sum(quota.values())
    if matches == 0:
        return 0.0
    try:
        chunks = _min_chunks_exact(candidate, reference, quota)
    except _BudgetExceeded:
        chunks = _min_chunks_greedy(candidate, reference, quota)
    p = matches / len(candidate)
    r = matches / len(reference)
    f_mean = 10 * p * r / (r + 9 * p)
    penalty = 0.5 * (chunks / matches) ** 3
    return f_mean * (1.0 - penalty)


def meteor(pair: EvalPair) -> float:
    """Exact-match METEOR with chunk penalty; best score over references."""
    return max(_meteor_single(pair.candidate, ref) for ref in pair.references)


# every metric by its report and scores.csv name, in column order
METRICS = {"bleu4": bleu4, "rouge_l": rouge_l, "meteor": meteor}


def score_pair(pair: EvalPair) -> dict[str, float]:
    return {name: metric(pair) for name, metric in METRICS.items()}


@dataclass(frozen=True)
class BucketSpec:
    """Strictly increasing boundaries splitting a length axis into
    exclusive, exhaustive ranges: <=b0, b0+1..b1, ..., >b_last."""

    boundaries: tuple[int, ...]
    key: str = "reference_len"

    def __post_init__(self):
        if not self.boundaries:
            raise BucketError("bucket boundaries must be non-empty")
        bounds = tuple(self.boundaries)
        if any(not isinstance(b, int) or isinstance(b, bool) for b in bounds):
            raise BucketError(f"bucket boundaries must be integers, got {bounds!r}")
        if any(b <= 0 for b in bounds):
            raise BucketError(f"bucket boundaries must be positive, got {bounds!r}")
        if any(b1 <= b0 for b0, b1 in zip(bounds, bounds[1:])):
            raise BucketError(f"bucket boundaries must be strictly increasing, got {bounds!r}")
        object.__setattr__(self, "boundaries", bounds)

    def labels(self) -> list[str]:
        out = [f"<={self.boundaries[0]}"]
        for lo, hi in zip(self.boundaries, self.boundaries[1:]):
            out.append(f"{lo + 1}-{hi}")
        out.append(f">{self.boundaries[-1]}")
        return out

    def index_of(self, value: int) -> int:
        for idx, b in enumerate(self.boundaries):
            if value <= b:
                return idx
        return len(self.boundaries)


@dataclass
class CorpusReport:
    """Per-pair scores with corpus means and optional length buckets."""

    pair_scores: list[dict[str, float]]
    overall: dict[str, float]
    buckets: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "overall": dict(self.overall),
            "buckets": [dict(b) for b in self.buckets],
            "n_pairs": len(self.pair_scores),
        }


def _mean_scores(scores: Sequence[dict[str, float]]) -> dict[str, float]:
    return {name: sum(s[name] for s in scores) / len(scores) if scores else 0.0 for name in METRICS}


def corpus_report(
    pairs: Sequence[EvalPair],
    bucket_spec: BucketSpec | None = None,
    bucket_values: Sequence[int] | None = None,
) -> CorpusReport:
    """Score every pair and aggregate.

    bucket_values supplies the per-pair length used for bucketing (for
    example source-code token counts); it defaults to the first reference
    length. Buckets are exclusive and exhaustive; empty buckets report
    count 0 and null means.
    """
    pair_scores = [score_pair(p) for p in pairs]
    overall = _mean_scores(pair_scores)
    buckets: list[dict] = []
    if bucket_spec is not None:
        if bucket_values is None:
            values = [len(p.references[0]) for p in pairs]
        else:
            values = list(bucket_values)
            if len(values) != len(pairs):
                raise BucketError(
                    f"bucket_values has {len(values)} entries for {len(pairs)} pairs"
                )
        labels = bucket_spec.labels()
        grouped: list[list[dict[str, float]]] = [[] for _ in labels]
        for value, scores in zip(values, pair_scores):
            grouped[bucket_spec.index_of(value)].append(scores)
        for label, scores in zip(labels, grouped):
            entry: dict = {"label": label, "key": bucket_spec.key, "count": len(scores)}
            entry.update(_mean_scores(scores) if scores else dict.fromkeys(METRICS))
            buckets.append(entry)
    return CorpusReport(pair_scores=pair_scores, overall=overall, buckets=buckets)


__all__ = [
    "METRICS",
    "EvalPair",
    "BucketSpec",
    "CorpusReport",
    "bleu4",
    "rouge_l",
    "meteor",
    "lcs_length",
    "score_pair",
    "corpus_report",
]
