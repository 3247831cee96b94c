import json

import numpy as np
import pytest

from scriptsum.astcore import Ast, AstNode, TokenAlignment, leaf_tokens
from scriptsum.errors import ConfigError
from scriptsum.minilang import parse_minilang
from scriptsum.structure import (
    ast_view,
    bucketize,
    dataflow_view,
    encode_structure,
    flow_view,
    floyd_apsp,
    multiview,
    normalize,
    sequential_relpos,
)

from oracles import (
    ast_view_reference,
    bfs_apsp,
    dataflow_view_reference,
    flow_view_reference,
    lca_depth,
    node_depths,
    random_minilang,
    random_tree,
)


def leaf(i, value):
    return AstNode(id=i, node_type="Identifier", value=value, children=())


def interior(i, node_type, children):
    return AstNode(id=i, node_type=node_type, value=None, children=tuple(children))


def star_ast():
    return Ast([interior(0, "R", [1, 2, 3]), leaf(1, "a"), leaf(2, "b"), leaf(3, "c")])


class TestFloydApsp:
    def test_path_tree(self):
        ast = Ast([interior(0, "R", [1]), interior(1, "M", [2]), leaf(2, "x")])
        d = floyd_apsp(ast)
        assert d[0, 2] == 2
        assert d[0, 1] == d[1, 2] == 1

    def test_star_tree(self):
        d = floyd_apsp(star_ast())
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                assert d[i, j] == (0 if i == j else 2)

    def test_matches_bfs_oracle(self):
        rng = np.random.default_rng(0)
        chain = Ast([interior(i, "M", [i + 1]) for i in range(399)] + [leaf(399, "x")])
        star = Ast([interior(0, "R", range(1, 401))] + [leaf(i, f"v{i}") for i in range(1, 401)])
        trees = [random_tree(rng, 30) for _ in range(10)]
        trees += [chain, star] + [random_tree(rng, int(rng.integers(280, 320))) for _ in range(3)]
        for ast in trees:
            assert np.array_equal(floyd_apsp(ast), bfs_apsp(ast))

    def test_node_subsets_match_bfs_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            ast = random_tree(rng, int(rng.integers(1, 40)))
            full = bfs_apsp(ast)
            for size in (0, 1, int(rng.integers(0, len(ast) + 1))):
                nodes = np.sort(rng.choice(len(ast), size=min(size, len(ast)), replace=False))
                d = floyd_apsp(ast, nodes)
                assert d.shape == (len(nodes), len(nodes))
                assert np.array_equal(d, full[np.ix_(nodes, nodes)])

    @pytest.mark.parametrize("nodes", [[2, 1], [1, 1], [-1, 2], [0, 4], [[0, 1]]])
    def test_invalid_node_ids_rejected(self, nodes):
        with pytest.raises(ValueError, match="strictly increasing"):
            floyd_apsp(star_ast(), nodes)

    def test_lca_depth_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(5)            :
            ast = random_tree(rng, 20)
            d = floyd_apsp(ast)
            depth = node_depths(ast)
            for i in range(len(ast)):
                for j in range(len(ast)):
                    expected = depth[i] + depth[j] - 2 * lca_depth(ast, i, j)
                    assert d[i, j] == expected

    def test_invariants(self):
        rng = np.random.default_rng(2)
        ast = random_tree(rng, 25)
        d = floyd_apsp(ast)
        assert np.array_equal(d, d.T)
        assert np.all(np.diagonal(d) == 0)
        # triangle inequality
        for k in range(len(d)):
            assert np.all(d <= d[:, k : k + 1] + d[k : k + 1, :] + 1e-12)


class TestTokenDistances:
    def test_same_leaf_zero(self):
        ast = Ast([interior(0, "R", [1, 2]), leaf(1, "getFoo"), leaf(2, "x")])
        tokens, align = leaf_tokens(ast)
        d = encode_structure(ast, align).distances
        assert tokens == ["get", "foo", "x"]
        assert d[0, 1] == 0

    def test_sibling_leaves_distance_two(self):
        ast = star_ast()
        _, align = leaf_tokens(ast)
        assert encode_structure(ast, align).distances[0, 1] == 2

    def test_parent_child_sibling_pattern(self):
        # root with three children: diagonal 0, root-child 1, child-child 2
        ast = star_ast()
        align = TokenAlignment(token_to_node=(0, 1, 2, 3))
        d = encode_structure(ast, align).distances
        expected = np.array(
            [
                [0, 1, 1, 1],
                [1, 0, 2, 2],
                [1, 2, 0, 2],
                [1, 2, 2, 0],
            ],
            dtype=np.int64,
        )
        assert np.array_equal(d, expected)

    def test_out_of_range_alignment(self):
        ast = star_ast()
        with pytest.raises(ValueError):
            encode_structure(ast, TokenAlignment((0, 9)))


class TestNormalize:
    def test_reciprocal_row(self):
        d = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
        m_bar = normalize(d)
        assert np.allclose(m_bar[0], [0.0, 2 / 3, 1 / 3])

    def test_single_token(self):
        m_bar = normalize(np.zeros((1, 1)))
        assert np.array_equal(m_bar, np.zeros((1, 1)))

    def test_degenerate_rows_stay_zero(self):
        # two subtokens of one identifier: all pairwise distances are zero
        d = np.zeros((2, 2))
        m_bar = normalize(d)
        assert np.array_equal(m_bar, np.zeros((2, 2)))

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            ast = random_tree(rng, int(rng.integers(2, 30)))
            _, align = leaf_tokens(ast)
            d = encode_structure(ast, align).distances
            m_bar = normalize(d)
            sums = m_bar.sum(axis=1)
            nonzero_rows = (d > 0).any(axis=1)
            assert np.allclose(sums[nonzero_rows], 1.0, atol=1e-9)
            assert np.all(sums[~nonzero_rows] == 0.0)

    def test_strictly_inverse_to_distance(self):
        rng = np.random.default_rng(4)
        ast = random_tree(rng, 25)
        _, align = leaf_tokens(ast)
        d = encode_structure(ast, align).distances
        m_bar = normalize(d)
        n = len(d)
        for i in range(n):
            for j in range(n):
                for k_idx in range(n):
                    if 0 < d[i, j] < d[i, k_idx]:
                        assert m_bar[i, j] > m_bar[i, k_idx]

    def test_row_ranking_invariant_to_scaling(self):
        rng = np.random.default_rng(5)
        ast = random_tree(rng, 20)
        _, align = leaf_tokens(ast)
        d = encode_structure(ast, align).distances
        base = normalize(d)
        scaled = normalize(d * 7.0)
        for i in range(len(d)):
            assert np.array_equal(
                np.argsort(-base[i], kind="stable"), np.argsort(-scaled[i], kind="stable")
            )


class TestBucketize:
    def test_clip_examples(self):
        d = np.array([[0.0, 5.0], [5.0, 0.0]])
        b = bucketize(d, 3)
        assert b[0, 1] == 3
        assert b[0, 0] == 0

    def test_boundary(self):
        d = np.array([[0.0, 3.0], [3.0, 0.0]])
        assert bucketize(d, 3)[0, 1] == 3

    def test_idempotent(self):
        rng = np.random.default_rng(6)
        ast = random_tree(rng, 20)
        once = bucketize(floyd_apsp(ast), 4)
        twice = bucketize(once, 4)
        assert np.array_equal(once, twice)

    def test_symmetric_and_bounded(self):
        rng = np.random.default_rng(7)
        ast = random_tree(rng, 30)
        b = bucketize(floyd_apsp(ast), 5)
        assert np.array_equal(b, b.T)
        assert b.min() >= 0 and b.max() <= 5

    def test_invalid_threshold(self):
        m = np.zeros((1, 1))
        with pytest.raises(ConfigError):
            bucketize(m, 0)
        with pytest.raises(ConfigError):
            bucketize(m, -2)


class TestMultiview:
    def test_ast_only_weights(self):
        ast = parse_minilang("a = b + c;")
        _, align = leaf_tokens(ast)
        mv = multiview(ast, align, (1.0, 0.0, 0.0))
        assert np.array_equal(mv, ast_view(ast, align))

    def test_single_token_diagonal(self):
        ast = Ast([leaf(0, "x")])
        _, align = leaf_tokens(ast)
        mv = multiview(ast, align, (0.5, 0.25, 0.25))
        assert np.allclose(mv, [[1.0]])

    def test_diagonal_is_weight_sum(self):
        ast = parse_minilang("a = b; c = a;")
        _, align = leaf_tokens(ast)
        mv = multiview(ast, align, (0.2, 0.3, 0.4))
        assert np.allclose(np.diagonal(mv), 0.9)

    def test_dataflow_connects_same_identifier(self):
        ast = parse_minilang("a = b; c = a;")
        tokens, align = leaf_tokens(ast)
        a_dp = dataflow_view(ast, align)
        occurrences = [i for i, t in enumerate(tokens) if t == "a"]
        assert len(occurrences) == 2
        i, j = occurrences
        assert a_dp[i, j] == 1.0 and a_dp[j, i] == 1.0
        # tokens of different names are not linked
        b_pos = tokens.index("b")
        assert a_dp[i, b_pos] == 0.0

    def test_views_are_binary_symmetric_unit_diagonal(self):
        ast = parse_minilang("function f(n) { if (n > 0) { n = n - 1; } return n; }")
        _, align = leaf_tokens(ast)
        for view in (ast_view(ast, align), flow_view(ast, align), dataflow_view(ast, align)):
            assert set(np.unique(view)) <= {0.0, 1.0}
            assert np.array_equal(view, view.T)
            assert np.all(np.diagonal(view) == 1.0)

    def test_combination_and_bounds(self):
        ast = parse_minilang("x = y * y;")
        _, align = leaf_tokens(ast)
        mv = multiview(ast, align, (0.1, 0.2, 0.7))
        manual = 0.1 * ast_view(ast, align) + 0.2 * flow_view(ast, align) + 0.7 * dataflow_view(ast, align)
        assert np.allclose(mv, manual)
        assert mv.min() >= 0.0 and mv.max() <= 1.0 + 1e-12

    def test_zero_weights_rejected(self):
        ast = parse_minilang("x = y;")
        _, align = leaf_tokens(ast)
        with pytest.raises(ConfigError):
            multiview(ast, align, (0.0, 0.0, 0.0))
        with pytest.raises(ConfigError):
            multiview(ast, align, (-0.1, 0.6, 0.5))

    @pytest.mark.parametrize(
        "weights", [(np.nan, 1.0, 1.0), (np.inf, 0.0, 0.0), (1.0, -np.inf, 1.0), (1e308,) * 3]
    )
    def test_non_finite_weights_rejected(self, weights):
        ast = parse_minilang("x = y;")
        _, align = leaf_tokens(ast)
        with pytest.raises(ConfigError, match="finite"):
            multiview(ast, align, weights)

    def test_views_match_pairwise_references(self, toy_corpus_path):
        rng = np.random.default_rng(3)
        codes = [json.loads(line)["code"] for line in toy_corpus_path.read_text().splitlines()]
        codes += [random_minilang(rng, int(rng.integers(1, 6))) for _ in range(10)]
        for code in codes:
            ast = parse_minilang(code)
            _, align = leaf_tokens(ast)
            assert np.array_equal(ast_view(ast, align), ast_view_reference(ast, align))
            assert np.array_equal(flow_view(ast, align), flow_view_reference(ast, align))
            assert np.array_equal(dataflow_view(ast, align), dataflow_view_reference(ast, align))

    def test_flow_view_links_consecutive_statements(self):
        ast = parse_minilang("a = 1; b = 2; c = 3;")
        tokens, align = leaf_tokens(ast)
        a_fl = flow_view(ast, align)
        i = tokens.index("a")
        j = tokens.index("b")
        k = tokens.index("c")
        assert a_fl[i, j] == 1.0
        assert a_fl[j, k] == 1.0
        assert a_fl[i, k] == 0.0


class TestSequentialRelpos:
    def test_small_window(self):
        r = sequential_relpos(3, 2)
        assert list(r[0]) == [0, 1, 2]
        assert list(r[2]) == [-2, -1, 0]

    def test_clamps(self):
        r = sequential_relpos(8, 2)
        assert r[0, 7] == 2
        assert r[7, 0] == -2

    def test_antisymmetric_within_window(self):
        r = sequential_relpos(6, 3)
        for i in range(6):
            for j in range(6):
                if abs(j - i) <= 3:
                    assert r[i, j] == -r[j, i]

    def test_invalid_window(self):
        with pytest.raises(ConfigError):
            sequential_relpos(4, 0)


class TestEncodeStructure:
    def test_fields_consistent(self):
        ast = parse_minilang("function add(a, b) { return a + b; }")
        tokens, align = leaf_tokens(ast)
        enc = encode_structure(ast, align, distance_clip=4)
        n = len(tokens)
        assert enc.distances.shape == (n, n)
        assert enc.distance_weights.shape == (n, n)
        assert enc.bucket_ids.shape == (n, n)
        assert enc.multiview.shape == (n, n)
        assert enc.bucket_ids.max() <= 4
        assert np.array_equal(enc.bucket_ids, np.minimum(enc.distances, 4))

    def test_weights_follow_clipped_distances(self):
        ast = parse_minilang("a = b + c * d - e;")
        _, align = leaf_tokens(ast)
        enc = encode_structure(ast, align, distance_clip=2)
        assert np.array_equal(enc.distance_weights, normalize(enc.bucket_ids.astype(np.float64)))

    def test_distances_at_or_beyond_clip_are_interchangeable(self):
        # raising any already-clipped distance must not change a single bit
        # of what the model consumes
        ast = parse_minilang("function f(a) { if (a > 0) { return a; } return 0 - a; }")
        _, align = leaf_tokens(ast)
        clip = 3
        base = encode_structure(ast, align, distance_clip=clip)
        raw = base.distances
        at_clip = np.argwhere(raw >= clip)
        assert len(at_clip) > 0
        i, j = at_clip[0]
        perturbed = raw.astype(np.float64).copy()
        perturbed[i, j] += 5
        perturbed[j, i] += 5
        buckets = bucketize(perturbed, clip)
        weights = normalize(buckets.astype(np.float64))
        assert np.array_equal(buckets, base.bucket_ids)
        assert np.array_equal(weights, base.distance_weights)

    def test_returns_types(self):
        ast = parse_minilang("x = 1;")
        _, align = leaf_tokens(ast)
        enc = encode_structure(ast, align)
        assert enc.distances.dtype == np.int64
        assert enc.bucket_ids.dtype == np.int64
        assert enc.distance_weights.dtype == np.float64

    def test_matches_references_exactly(self, toy_corpus_path):
        """Every field against an independent reference, bit for bit: the
        32 toy programs with their own alignments, and random trees with
        random alignments that repeat leaves in any order."""
        rng = np.random.default_rng(11)
        cases = []
        for line in toy_corpus_path.read_text().splitlines():
            ast = parse_minilang(json.loads(line)["code"])
            cases.append((ast, leaf_tokens(ast)[1]))
        for _ in range(50):
            ast = random_tree(rng, int(rng.integers(1, 40)))
            leaves = [node.id for node in ast.nodes if not node.children]
            picks = rng.choice(leaves, size=int(rng.integers(1, 2 * len(leaves) + 2)))
            cases.append((ast, TokenAlignment(tuple(picks.tolist()))))
        for ast, align in cases:
            clip = int(rng.integers(1, 10))
            weights = tuple(rng.choice([0.0, 0.25, 1 / 3, 0.5, 1.0], size=3).tolist())
            if sum(weights) == 0.0:
                weights = (1 / 3, 1 / 3, 1 / 3)
            enc = encode_structure(ast, align, clip, weights)
            idx = list(align.token_to_node)
            d = enc.distances
            assert d.dtype == np.int64 and enc.bucket_ids.dtype == np.int64
            assert np.array_equal(d, bfs_apsp(ast)[np.ix_(idx, idx)])
            assert np.array_equal(d, d.T) and np.all(np.diagonal(d) == 0)
            assert np.array_equal(enc.bucket_ids, np.minimum(d, clip))
            assert np.array_equal(enc.distance_weights, normalize(enc.bucket_ids))
            sums = enc.distance_weights.sum(axis=1)
            live = enc.distance_weights.any(axis=1)
            assert np.all(np.abs(sums[live] - 1.0) <= 1e-9) and np.all(sums[~live] == 0.0)
            alpha, beta, gamma = weights
            expected = (
                alpha * ast_view_reference(ast, align)
                + beta * flow_view_reference(ast, align)
                + gamma * dataflow_view_reference(ast, align)
            )
            assert np.array_equal(enc.multiview, expected)
