import pytest

from scriptsum.errors import MiniLangSyntaxError
from scriptsum.minilang import MAX_NESTING_DEPTH, parse_minilang


def shape(ast):
    return [(n.id, n.node_type, n.value, n.children) for n in ast.nodes]


def types(ast):
    return [n.node_type for n in ast.nodes]


class TestStatements:
    def test_assignment(self):
        ast = parse_minilang("x = a;")
        assert types(ast) == ["Program", "Assignment", "Identifier", "Identifier"]
        assert ast.nodes[2].value == "x"
        assert ast.nodes[3].value == "a"

    def test_return(self):
        ast = parse_minilang("return x;")
        assert types(ast) == ["Program", "ReturnStatement", "Identifier"]

    def test_return_requires_expression(self):
        with pytest.raises(MiniLangSyntaxError):
            parse_minilang("return;")

    def test_if_without_else(self):
        ast = parse_minilang("if (a > b) { c = a; }")
        assert types(ast) == [
            "Program",
            "IfStatement",
            "BinaryOp(>)",
            "Identifier",
            "Identifier",
            "Block",
            "Assignment",
            "Identifier",
            "Identifier",
        ]
        # IfStatement without else has exactly condition + then-block
        assert ast.nodes[1].children == (2, 5)

    def test_if_with_else(self):
        ast = parse_minilang("if (a > b) { c = a; } else { c = b; }")
        assert len(ast.nodes[1].children) == 3
        assert ast.nodes[ast.nodes[1].children[2]].node_type == "Block"

    def test_while(self):
        ast = parse_minilang("while (i < n) { i = i + 1; }")
        assert ast.nodes[1].node_type == "WhileStatement"
        cond, body = ast.nodes[1].children
        assert ast.nodes[cond].node_type == "BinaryOp(<)"
        assert ast.nodes[body].node_type == "Block"

    def test_function_decl(self):
        ast = parse_minilang("function add(a, b) { return a + b; }")
        decl = ast.nodes[1]
        assert decl.node_type == "FunctionDecl"
        name_id = decl.children[0]
        assert ast.nodes[name_id].value == "add"
        params = [ast.nodes[i].value for i in decl.children[1:-1]]
        assert params == ["a", "b"]
        assert ast.nodes[decl.children[-1]].node_type == "Block"

    def test_function_without_params(self):
        ast = parse_minilang("function f() { return 1; }")
        assert len(ast.nodes[1].children) == 2

    def test_expression_statement(self):
        ast = parse_minilang("f(x);")
        assert types(ast) == [
            "Program",
            "ExpressionStatement",
            "Call",
            "Identifier",
            "Identifier",
        ]

    def test_multiple_statements(self):
        ast = parse_minilang("a = 1; b = 2;")
        assert [ast.nodes[i].node_type for i in ast.nodes[0].children] == [
            "Assignment",
            "Assignment",
        ]


class TestExpressions:
    def test_precedence_mul_over_add(self):
        ast = parse_minilang("x = a + b * c;")
        plus = ast.nodes[3]
        assert plus.node_type == "BinaryOp(+)"
        assert ast.nodes[plus.children[1]].node_type == "BinaryOp(*)"

    def test_parentheses_override(self):
        ast = parse_minilang("x = (a + b) * c;")
        times = ast.nodes[3]
        assert times.node_type == "BinaryOp(*)"
        assert ast.nodes[times.children[0]].node_type == "BinaryOp(+)"

    def test_left_associativity(self):
        ast = parse_minilang("x = a - b - c;")
        outer = ast.nodes[3]
        assert outer.node_type == "BinaryOp(-)"
        assert ast.nodes[outer.children[0]].node_type == "BinaryOp(-)"
        assert ast.nodes[outer.children[1]].value == "c"

    def test_comparison_operators(self):
        for op in ["<", ">", "<=", ">=", "==", "!="]:
            ast = parse_minilang(f"x = a {op} b;")
            assert ast.nodes[3].node_type == f"BinaryOp({op})"

    def test_unary_minus(self):
        ast = parse_minilang("x = -a;")
        assert ast.nodes[3].node_type == "UnaryOp(-)"
        ast = parse_minilang("x = --a;")
        assert ast.nodes[4].node_type == "UnaryOp(-)"

    def test_modulo_and_divide(self):
        ast = parse_minilang("x = a % b / c;")
        outer = ast.nodes[3]
        assert outer.node_type == "BinaryOp(/)"
        assert ast.nodes[outer.children[0]].node_type == "BinaryOp(%)"

    def test_number_literals(self):
        ast = parse_minilang("x = 3.25;")
        assert ast.nodes[3].node_type == "NumberLiteral"
        assert ast.nodes[3].value == "3.25"

    def test_string_literal_keeps_quotes(self):
        ast = parse_minilang('x = "hi there";')
        assert ast.nodes[3].node_type == "StringLiteral"
        assert ast.nodes[3].value == '"hi there"'

    def test_string_escape(self):
        ast = parse_minilang(r'x = "a\"b";')
        assert ast.nodes[3].value == r'"a\"b"'

    def test_call_arguments(self):
        ast = parse_minilang("y = f(a, g(b), 2);")
        call = ast.nodes[3]
        assert call.node_type == "Call"
        assert len(call.children) == 4
        assert ast.nodes[call.children[2]].node_type == "Call"


class TestTreeShape:
    def test_ids_are_preorder(self):
        ast = parse_minilang("if (a > b) { c = a; } else { c = b; }")
        assert [n.id for n in ast.nodes] == list(range(len(ast)))
        for node in ast.nodes:
            for child in node.children:
                assert child > node.id

    def test_deterministic(self):
        src = "function f(n) { s = 0; while (n > 0) { s = s + n; n = n - 1; } return s; }"
        assert parse_minilang(src) == parse_minilang(src)

    def test_comments_ignored(self):
        with_comment = parse_minilang("x = a; // trailing words\ny = b;")
        without = parse_minilang("x = a;\ny = b;")
        assert with_comment == without

    def test_whitespace_insensitive(self):
        assert parse_minilang("x=a+b;") == parse_minilang("x  =\n  a + b ;")


class TestErrors:
    def test_unclosed_paren(self):
        with pytest.raises(MiniLangSyntaxError):
            parse_minilang("if (")

    def test_missing_semicolon(self):
        with pytest.raises(MiniLangSyntaxError):
            parse_minilang("x = a")

    def test_unterminated_block(self):
        with pytest.raises(MiniLangSyntaxError):
            parse_minilang("while (a < b) { x = a;")

    def test_unterminated_string(self):
        with pytest.raises(MiniLangSyntaxError):
            parse_minilang('x = "abc;')

    def test_unexpected_character(self):
        with pytest.raises(MiniLangSyntaxError):
            parse_minilang("x = a @ b;")

    def test_empty_source(self):
        with pytest.raises(MiniLangSyntaxError):
            parse_minilang("")

    def test_error_carries_position(self):
        with pytest.raises(MiniLangSyntaxError) as exc_info:
            parse_minilang("x = a;\ny = $;")
        assert exc_info.value.line == 2
        assert exc_info.value.col == 5

    def test_keyword_as_identifier(self):
        with pytest.raises(MiniLangSyntaxError):
            parse_minilang("return = 1;")

    @pytest.mark.parametrize(
        "source, char, line, col",
        [
            ("x = 1;\né = 1;", "é", 2, 1),
            ("x = 1;\ny = ²;", "²", 2, 5),
            ("x = a٣4;", "٣", 1, 6),
        ],
        ids=["letter", "superscript_digit", "arabic_digit_in_name"],
    )
    def test_non_ascii_character_is_rejected(self, source, char, line, col):
        with pytest.raises(MiniLangSyntaxError, match=f"unexpected character '{char}'") as exc_info:
            parse_minilang(source)
        assert (exc_info.value.line, exc_info.value.col) == (line, col)

    def test_backslash_newline_in_string_is_unterminated(self):
        with pytest.raises(MiniLangSyntaxError, match="unterminated string") as exc_info:
            parse_minilang('x = "a\\\nb";\ny = $;')
        assert (exc_info.value.line, exc_info.value.col) == (1, 5)

    def test_error_after_escaped_string_keeps_its_line(self):
        with pytest.raises(MiniLangSyntaxError, match="unexpected character") as exc_info:
            parse_minilang('x = "a\\"b\\\\";\n\ny = $;')
        assert (exc_info.value.line, exc_info.value.col) == (3, 5)

    @pytest.mark.parametrize("end, position", [("", (2, 22)), ("\n", (3, 1))], ids=["eof", "newline"])
    def test_end_of_input_after_trailing_comment(self, end, position):
        # the end of input is past the comment
        with pytest.raises(MiniLangSyntaxError, match="found 'end of input'") as exc_info:
            parse_minilang("x = 1;\nx = a // no semicolon" + end)
        assert (exc_info.value.line, exc_info.value.col) == position


class TestNestingLimit:
    @pytest.mark.parametrize(
        "source, col",
        [
            ("x = " + "(" * 300 + "1" + ")" * 300 + ";", 105),
            ("x = " + "f(" * 300 + "1" + ")" * 300 + ";", 206),
            ("x = " + "-" * 1200 + "1;", 105),
            ("if (a) { x = 1; }" + " else if (a) { x = 1; }" * 300, 2308),
        ],
        ids=["parentheses", "calls", "unary_minus", "else_if_chain"],
    )
    def test_too_deep_is_a_syntax_error(self, source, col):
        with pytest.raises(MiniLangSyntaxError, match="nesting deeper than") as exc_info:
            parse_minilang(source)
        assert (exc_info.value.line, exc_info.value.col) == (1, col)

    def test_limit_is_exact_and_kinds_add_up(self):
        depth = MAX_NESTING_DEPTH
        parse_minilang("x = " + "(" * depth + "1" + ")" * depth + ";")
        parse_minilang("if (a) {" * depth + "x = 1;" + "}" * depth)
        half = depth // 2
        mixed = "while (a) {" * half + "x = " + "f(" * (depth - half) + "1" + ")" * (depth - half)
        parse_minilang(mixed + ";" + "}" * half)
        with pytest.raises(MiniLangSyntaxError):
            parse_minilang("x = " + "(" * (depth + 1) + "1" + ")" * (depth + 1) + ";")
        with pytest.raises(MiniLangSyntaxError):
            parse_minilang(mixed.replace("x = ", "x = -") + ";" + "}" * half)
