import json

import numpy as np
import pytest

from scriptsum.astcore import (
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
from scriptsum.errors import FormatError, TreeError
from scriptsum.minilang import parse_minilang

from oracles import random_minilang, random_tree


def leaf(i, value):
    return AstNode(id=i, node_type="Id", value=value, children=())


def interior(i, node_type, children):
    return AstNode(id=i, node_type=node_type, value=None, children=tuple(children))


class TestAstInvariants:
    def test_two_node_tree(self):
        ast = Ast([interior(0, "Root", [1]), leaf(1, "x")])
        assert len(ast) == 2
        assert ast.leaf_order == (1,)

    def test_interior_node_with_value_rejected(self):
        bad = AstNode(id=0, node_type="Root", value="oops", children=(1,))
        with pytest.raises(ValueError):
            Ast([bad, leaf(1, "x")])

    def test_leaf_without_value_rejected(self):
        with pytest.raises(ValueError):
            Ast([interior(0, "Root", [1]), AstNode(1, "Id", None, ())])

    def test_cycle_rejected(self):
        nodes = [interior(0, "Root", [1]), interior(1, "Mid", [0])]
        with pytest.raises(TreeError):
            Ast(nodes)

    def test_multiple_parents_rejected(self):
        nodes = [interior(0, "Root", [1, 2]), interior(1, "Mid", [2]), leaf(2, "x")]
        with pytest.raises(TreeError):
            Ast(nodes)

    def test_orphan_rejected(self):
        nodes = [interior(0, "Root", [1]), leaf(1, "x"), leaf(2, "y")]
        with pytest.raises(TreeError):
            Ast(nodes)

    def test_non_preorder_ids_rejected_without_renumber(self):
        # root 0 -> [2, 1]: preorder would visit 2 before 1
        nodes = [interior(0, "Root", [2, 1]), leaf(1, "b"), leaf(2, "a")]
        with pytest.raises(TreeError):
            Ast(nodes)
        renumbered = Ast(nodes, renumber=True)
        assert [n.node_type for n in renumbered.nodes] == ["Root", "Id", "Id"]
        assert [n.value for n in renumbered.nodes] == [None, "a", "b"]

    def test_edge_count_equals_nodes_minus_one(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            ast = random_tree(rng, int(rng.integers(1, 40)))
            edges = sum(len(n.children) for n in ast.nodes)
            assert edges == len(ast) - 1

    def test_leaf_order_matches_document_order(self):
        ast = parse_minilang("x = a + b; y = c;")
        values = [ast.nodes[i].value for i in ast.leaf_order]
        assert values == ["x", "a", "b", "y", "c"]


class TestSbt:
    def test_single_leaf_root(self):
        ast = Ast([leaf(0, "a")])
        assert sbt_sequence(ast) == ["(", "a", ")", "a"]

    def test_root_with_one_leaf(self):
        ast = Ast([interior(0, "R", [1]), leaf(1, "a")])
        assert sbt_sequence(ast) == ["(", "R", "(", "a", ")", "a", ")", "R"]

    def test_root_with_two_leaves(self):
        ast = Ast([interior(0, "R", [1, 2]), leaf(1, "a"), leaf(2, "b")])
        assert sbt_sequence(ast) == [
            "(", "R", "(", "a", ")", "a", "(", "b", ")", "b", ")", "R",
        ]

    def test_length_is_four_times_node_count(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            ast = random_tree(rng, int(rng.integers(1, 60)))
            assert len(sbt_sequence(ast)) == 4 * len(ast)

    def test_first_visit_order_matches_ids(self):
        # the first occurrence of each node's label comes in id order
        ast = parse_minilang("if (a > b) { c = a; }")
        seq = sbt_sequence(ast)
        open_positions = [i for i, s in enumerate(seq) if s == "("]
        assert len(open_positions) == len(ast)


class TestSplitIdentifier:
    def test_camel_case(self):
        assert split_identifier("getFoo") == ["get", "foo"]

    def test_snake_case(self):
        assert split_identifier("my_var_name") == ["my", "var", "name"]

    def test_mixed_and_acronyms(self):
        assert split_identifier("parseHTTPResponse") == ["parse", "http", "response"]
        assert split_identifier("snake_caseMix") == ["snake", "case", "mix"]

    def test_digits_stay_attached(self):
        assert split_identifier("v2counter") == ["v2counter"]
        assert split_identifier("base64Encode") == ["base64", "encode"]

    def test_degenerate(self):
        assert split_identifier("x") == ["x"]
        assert split_identifier("_") == ["_"]


class TestLeafTokens:
    def test_subtoken_alignment(self):
        ast = Ast(
            [
                interior(0, "R", [1, 2]),
                leaf(1, "getFoo"),
                leaf(2, "x"),
            ]
        )
        tokens, align = leaf_tokens(ast)
        assert tokens == ["get", "foo", "x"]
        assert list(align.token_to_node) == [1, 1, 2]

    def test_sentinels(self):
        ast = Ast(
            [
                interior(0, "R", [1, 2]),
                AstNode(1, "NumberLiteral", "42", ()),
                AstNode(2, "StringLiteral", '"hi"', ()),
            ]
        )
        tokens, align = leaf_tokens(ast)
        assert tokens == ["NUM", "STR"]
        assert list(align.token_to_node) == [1, 2]

    def test_alignment_monotone_and_surjective(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            ast = random_tree(rng, int(rng.integers(2, 40)))
            tokens, align = leaf_tokens(ast)
            ids = list(align.token_to_node)
            order = {leaf_id: pos for pos, leaf_id in enumerate(ast.leaf_order)}
            ranks = [order[i] for i in ids]
            assert ranks == sorted(ranks)
            assert set(ids) == set(ast.leaf_order)

    def test_alignment_len(self):
        ast = parse_minilang("return myValue;")
        tokens, align = leaf_tokens(ast)
        assert len(align) == len(tokens) == 2
        assert align[0] == align[1]


class TestInterchange:
    def test_round_trip(self):
        rng = np.random.default_rng(5)
        trees = [random_tree(rng, int(rng.integers(1, 40))) for _ in range(20)]
        # parsed programs: typed nodes, literal values and nested statements
        trees += [parse_minilang(random_minilang(rng, int(rng.integers(1, 8)))) for _ in range(300)]
        for ast in trees:
            assert ast_from_json(ast_to_json(ast)) == ast

    @pytest.mark.parametrize("shape", ["chain", "star"])
    def test_degenerate_trees_load_and_round_trip(self, shape):
        # a 10,000-deep chain and a 100,000-leaf star: flat node lists, so
        # loading must not recurse or go quadratic
        if shape == "chain":
            n = 10_000
            nodes = [{"id": i, "type": "Block", "children": [i + 1]} for i in range(n - 1)]
            nodes.append({"id": n - 1, "type": "Id", "value": "x", "children": []})
        else:
            n = 100_001
            nodes = [{"id": 0, "type": "Root", "children": list(range(1, n))}]
            nodes += [{"id": i, "type": "Id", "value": f"v{i}", "children": []} for i in range(1, n)]
        doc = {"nodes": nodes}
        ast = ast_from_json(doc)
        assert len(ast) == n
        assert ast.leaf_order == ((n - 1,) if shape == "chain" else tuple(range(1, n)))
        assert ast_to_json(ast) == doc
        assert ast_from_json(ast_to_json(ast)) == ast

    def test_minimal_document(self):
        doc = {
            "nodes": [
                {"id": 0, "type": "Root", "children": [1]},
                {"id": 1, "type": "Id", "value": "x", "children": []},
            ]
        }
        ast = ast_from_json(doc)
        assert len(ast) == 2
        assert ast.leaf_order == (1,)

    def test_cycle_in_document(self):
        doc = {
            "nodes": [
                {"id": 0, "type": "Root", "children": [1]},
                {"id": 1, "type": "Mid", "children": [0]},
            ]
        }
        with pytest.raises(TreeError):
            ast_from_json(doc)

    def test_interior_with_value(self):
        doc = {
            "nodes": [
                {"id": 0, "type": "Root", "value": "bad", "children": [1]},
                {"id": 1, "type": "Id", "value": "x", "children": []},
            ]
        }
        with pytest.raises(ValueError):
            ast_from_json(doc)

    def test_schema_violations(self):
        with pytest.raises(FormatError):
            ast_from_json({"wrong": []})
        with pytest.raises(FormatError):
            ast_from_json({"nodes": [{"id": 0, "type": "X", "children": [], "extra": 1}]})
        with pytest.raises(FormatError):
            ast_from_json({"nodes": [{"id": True, "type": "X", "children": []}]})
        with pytest.raises(FormatError):
            ast_from_json({"nodes": [{"id": 5, "type": "X", "children": []}]})

    def test_load_from_file(self, tmp_path):
        ast = parse_minilang("return x;")
        path = tmp_path / "a.ast.json"
        path.write_text(json.dumps(ast_to_json(ast)))
        assert load_ast_json(path) == ast

    def test_non_preorder_document_is_renumbered(self):
        doc = {
            "nodes": [
                {"id": 0, "type": "Root", "children": [2, 1]},
                {"id": 1, "type": "Id", "value": "b", "children": []},
                {"id": 2, "type": "Id", "value": "a", "children": []},
            ]
        }
        ast = ast_from_json(doc)
        assert [n.value for n in ast.nodes] == [None, "a", "b"]


class TestTokenAlignment:
    def test_basic(self):
        a = TokenAlignment(token_to_node=(3, 3, 5))
        assert len(a) == 3
        assert a[2] == 5
