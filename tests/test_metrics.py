import math

import numpy as np
import pytest

from scriptsum.errors import BucketError
from scriptsum.metrics import (
    BucketSpec,
    EvalPair,
    bleu4,
    corpus_report,
    lcs_length,
    meteor,
    rouge_l,
    score_pair,
)

from oracles import brute_force_lcs


def pair(candidate, *references):
    return EvalPair(candidate=candidate.split(), references=[r.split() for r in references])


class TestBleu4:
    def test_identical_is_one(self):
        assert bleu4(pair("a b c", "a b c")) == pytest.approx(1.0)
        assert bleu4(pair("a", "a")) == pytest.approx(1.0)

    def test_frozen_golden_single_substitution(self):
        # 4 tokens, last differs: precisions 3/4, 3/4, 2/3, 1/2 (smoothed)
        got = bleu4(pair("a b c d", "a b c e"))
        assert got == pytest.approx((3 / 16) ** 0.25)
        assert got == pytest.approx(0.6580370064762462, abs=1e-15)

    def test_brevity_penalty(self):
        # perfect prefix at half the reference length: exp(1 - 4/2)
        assert bleu4(pair("a b", "a b c d")) == pytest.approx(math.exp(-1.0))

    def test_no_brevity_penalty_when_longer(self):
        long = bleu4(pair("a b c d e", "a b c d"))
        assert long > 0.0
        # only modified precisions suffer, no extra exponential factor
        assert long == pytest.approx(
            (4 / 5 * (3 + 1) / (4 + 1) * (2 + 1) / (3 + 1) * (1 + 1) / (2 + 1)) ** 0.25
        )

    def test_zero_unigram_overlap_is_zero(self):
        assert bleu4(pair("x y z", "a b c")) == 0.0

    def test_empty_candidate_is_zero(self):
        assert bleu4(EvalPair(candidate=[], references=[["a"]])) == 0.0

    def test_multi_reference_takes_best(self):
        one = pair("a b c d", "a b c e")
        two = pair("a b c d", "a b c e", "a b c d")
        assert bleu4(two) == pytest.approx(1.0)
        assert bleu4(two) >= bleu4(one)


class TestRougeL:
    def test_frozen_golden(self):
        # lcs=2, precision 2/3, recall 1 -> F1 = 0.8
        assert rouge_l(pair("a b c", "a c")) == pytest.approx(0.8)

    def test_identical_is_one(self):
        assert rouge_l(pair("a b c", "a b c")) == pytest.approx(1.0)

    def test_zero_overlap(self):
        assert rouge_l(pair("x y", "a b")) == 0.0

    def test_subsequence_not_substring(self):
        # "a c e" is a subsequence of "a b c d e"
        got = rouge_l(pair("a c e", "a b c d e"))
        p, r = 3 / 3, 3 / 5
        assert got == pytest.approx(2 * p * r / (p + r))

    def test_lcs_matches_brute_force(self):
        rng = np.random.default_rng(7)
        alphabet = list("abcd")
        for _ in range(50):
            a = [alphabet[i] for i in rng.integers(0, 4, size=rng.integers(0, 8))]
            b = [alphabet[i] for i in rng.integers(0, 4, size=rng.integers(0, 8))]
            assert lcs_length(a, b) == brute_force_lcs(a, b)


class TestMeteor:
    def test_frozen_golden_identical_three_tokens(self):
        # one chunk of three matches: 1 - 0.5 * (1/3)^3
        got = meteor(pair("a b c", "a b c"))
        assert got == pytest.approx(0.9814814814814815, abs=1e-15)

    def test_frozen_golden_single_token(self):
        # a single match is one chunk: penalty 0.5 exactly
        assert meteor(pair("a", "a")) == pytest.approx(0.5)

    def test_two_swapped_blocks_make_two_chunks(self):
        # all four tokens match but in two contiguous runs
        got = meteor(pair("c d a b", "a b c d"))
        assert got == pytest.approx(1.0 - 0.5 * (2 / 4) ** 3)

    def test_alignment_minimizes_chunks(self):
        # matching the first candidate 'a' to the SECOND reference 'a'
        # lets 'b' extend the chunk: 2 chunks, not the naive 3
        got = meteor(pair("a b a", "a a b"))
        assert got == pytest.approx(1.0 - 0.5 * (2 / 3) ** 3)

    def test_recall_weighted_mean(self):
        # candidate "a" vs reference "a b": p=1, r=1/2, chunks=1, matches=1
        p, r = 1.0, 0.5
        f_mean = 10 * p * r / (r + 9 * p)
        assert meteor(pair("a", "a b")) == pytest.approx(f_mean * (1 - 0.5))

    def test_zero_overlap(self):
        assert meteor(pair("x", "a b")) == 0.0

    def test_multi_reference_takes_best(self):
        assert meteor(pair("a b", "x y", "a b")) == pytest.approx(
            1.0 - 0.5 * (1 / 2) ** 3
        )


class TestScoreProperties:
    def test_scores_stay_in_unit_interval(self):
        rng = np.random.default_rng(11)
        alphabet = list("abcdefgh")
        for _ in range(100):
            cand = [alphabet[i] for i in rng.integers(0, 8, size=rng.integers(1, 10))]
            ref = [alphabet[i] for i in rng.integers(0, 8, size=rng.integers(1, 10))]
            scores = score_pair(EvalPair(candidate=cand, references=[ref]))
            assert set(scores) == {"bleu4", "rouge_l", "meteor"}
            for v in scores.values():
                assert 0.0 <= v <= 1.0

    def test_adding_a_reference_never_hurts(self):
        rng = np.random.default_rng(13)
        alphabet = list("abcd")
        for _ in range(30):
            cand = [alphabet[i] for i in rng.integers(0, 4, size=rng.integers(1, 6))]
            r1 = [alphabet[i] for i in rng.integers(0, 4, size=rng.integers(1, 6))]
            r2 = [alphabet[i] for i in rng.integers(0, 4, size=rng.integers(1, 6))]
            small = EvalPair(candidate=cand, references=[r1])
            big = EvalPair(candidate=cand, references=[r1, r2])
            for name in ("bleu4", "rouge_l", "meteor"):
                assert score_pair(big)[name] >= score_pair(small)[name]

    def test_requires_a_reference(self):
        with pytest.raises(ValueError):
            EvalPair(candidate=["a"], references=[])


class TestBucketSpec:
    def test_labels(self):
        assert BucketSpec((4, 8)).labels() == ["<=4", "5-8", ">8"]
        assert BucketSpec((10,)).labels() == ["<=10", ">10"]

    def test_index_of_boundaries_are_inclusive_upper(self):
        spec = BucketSpec((4, 8))
        assert spec.index_of(1) == 0
        assert spec.index_of(4) == 0
        assert spec.index_of(5) == 1
        assert spec.index_of(8) == 1
        assert spec.index_of(9) == 2

    def test_validation(self):
        with pytest.raises(BucketError):
            BucketSpec(())
        with pytest.raises(BucketError):
            BucketSpec((4, 4))
        with pytest.raises(BucketError):
            BucketSpec((8, 4))
        with pytest.raises(BucketError):
            BucketSpec((0,))
        with pytest.raises(BucketError):
            BucketSpec((True,))
        with pytest.raises(BucketError):
            BucketSpec((2.5,))


class TestCorpusReport:
    def pairs(self):
        return [
            pair("a b c", "a b c"),
            pair("a b", "a b c d"),
            pair("x", "a b"),
        ]

    def test_overall_is_mean_of_pair_scores(self):
        pairs = self.pairs()
        report = corpus_report(pairs)
        per = [score_pair(p) for p in pairs]
        for name in ("bleu4", "rouge_l", "meteor"):
            assert report.overall[name] == pytest.approx(
                sum(s[name] for s in per) / len(per)
            )
        assert report.pair_scores == per
        assert report.buckets == []

    def test_buckets_partition_pairs(self):
        report = corpus_report(self.pairs(), bucket_spec=BucketSpec((2, 3)))
        # default bucket value is the first reference's length: 3, 4, 2
        counts = {b["label"]: b["count"] for b in report.buckets}
        assert counts == {"<=2": 1, "3-3": 1, ">3": 1}
        assert sum(b["count"] for b in report.buckets) == 3

    def test_empty_bucket_reports_null_means(self):
        report = corpus_report(
            [pair("a", "a")], bucket_spec=BucketSpec((5,)), bucket_values=[10]
        )
        empty, full = report.buckets
        assert (empty["count"], empty["bleu4"]) == (0, None)
        assert full["count"] == 1
        assert full["meteor"] == pytest.approx(0.5)

    def test_explicit_bucket_values(self):
        report = corpus_report(
            self.pairs(), bucket_spec=BucketSpec((10,)), bucket_values=[1, 1, 99]
        )
        assert [b["count"] for b in report.buckets] == [2, 1]

    def test_bucket_values_length_mismatch(self):
        with pytest.raises(BucketError):
            corpus_report(self.pairs(), bucket_spec=BucketSpec((4,)), bucket_values=[1])

    def test_empty_corpus(self):
        report = corpus_report([])
        assert report.overall == {"bleu4": 0.0, "rouge_l": 0.0, "meteor": 0.0}
        assert report.to_dict()["n_pairs"] == 0

    def test_to_dict_round_trips_through_json(self):
        import json

        report = corpus_report(self.pairs(), bucket_spec=BucketSpec((3,)))
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["n_pairs"] == 3
        assert len(payload["buckets"]) == 2
