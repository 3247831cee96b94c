"""Recursive-descent parser for the MiniLang toy language.

MiniLang is a small imperative language (functions, if/else, while, return,
assignment, calls, arithmetic and comparison expressions) used to exercise
the full pipeline without an external parser dependency. Parsing the same
source always yields the identical tree.

Grammar (EBNF):

    program     = statement, { statement } ;
    statement   = func_decl | if_stmt | while_stmt | return_stmt
                | assignment | expr_stmt ;
    func_decl   = "function", IDENT, "(", [ params ], ")", block ;
    params      = IDENT, { ",", IDENT } ;
    if_stmt     = "if", "(", expr, ")", block,
                  [ "else", ( block | if_stmt ) ] ;
    while_stmt  = "while", "(", expr, ")", block ;
    return_stmt = "return", expr, ";" ;
    assignment  = IDENT, "=", expr, ";" ;
    expr_stmt   = expr, ";" ;
    block       = "{", statement, { statement }, "}" ;
    expr        = additive, [ cmp_op, additive ] ;
    cmp_op      = "<" | ">" | "<=" | ">=" | "==" | "!=" ;
    additive    = term, { ( "+" | "-" ), term } ;
    term        = unary, { ( "*" | "/" | "%" ), unary } ;
    unary       = "-", unary | primary ;
    primary     = NUMBER | STRING | call | IDENT | "(", expr, ")" ;
    call        = IDENT, "(", [ expr, { ",", expr } ], ")" ;

Tokens are the matches of one regular expression over the ASCII classes of
docs/minilang.md; any other character is a syntax error. Comments run from
'//' to end of line. Blocks are non-empty and return takes an expression,
so interior nodes always have children. Operator tokens fold into the node
type (BinaryOp(+), UnaryOp(-)); only identifiers and literals become
leaves. Each grammar rule appends its node after its children's to one
list and returns its id, with id 0 kept for Program; Ast renumbers that
list to preorder. Blocks, `else if` links, parenthesised expressions, call
argument lists and unary operators together nest at most MAX_NESTING_DEPTH
levels deep.
"""

from __future__ import annotations

import re
from typing import Sequence

from .astcore import Ast, AstNode
from .errors import MiniLangSyntaxError

# one named group per token kind, tried in order; "bad" takes any character
# that starts no token
_TOKEN_RE = re.compile(
    r"(?P<skip>[ \t\r\n]+|//[^\n]*)"
    r"|(?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<NUMBER>[0-9]+(?:\.[0-9]+)?)"
    r'|(?P<STRING>"(?:[^"\\\n]|\\[^\n])*")'
    r"|(?P<OP>[<>=!]=|[(){},;=<>+\-*/%])"
    r"|(?P<bad>.)"
)
_KEYWORDS = frozenset({"function", "if", "else", "while", "return"})
_LITERALS = {"NUMBER": "NumberLiteral", "STRING": "StringLiteral"}
# binary operators by precedence level, loosest first
_BINARY_OPS = (
    frozenset({"<", ">", "<=", ">=", "==", "!="}),
    frozenset({"+", "-"}),
    frozenset({"*", "/", "%"}),
)

# Each nesting level costs the parser at most six Python frames (a call
# argument list: primary, items, expr at each of the three precedence
# levels, unary; a parenthesis takes five, a block three, an `else if` link
# and a unary minus one), so a source within this limit stays far below
# the interpreter's default recursion limit of 1000 frames.
MAX_NESTING_DEPTH = 100


def _tokenize(source: str) -> list[tuple[str, str, int, int]]:
    """(kind, text, line, column) of each token, keywords as KEYWORD, then
    of one EOF token."""
    tokens = []
    line, line_start = 1, 0
    for match in _TOKEN_RE.finditer(source):
        kind, text = match.lastgroup, match.group()
        if kind == "skip":
            if "\n" in text:
                line += text.count("\n")
                line_start = match.start() + text.rindex("\n") + 1
            continue
        col = match.start() - line_start + 1
        if kind == "bad":
            message = "unterminated string" if text == '"' else f"unexpected character {text!r}"
            raise MiniLangSyntaxError(message, line, col)
        if kind == "IDENT" and text in _KEYWORDS:
            kind = "KEYWORD"
        tokens.append((kind, text, line, col))
    tokens.append(("EOF", "", line, len(source) - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int, int]]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0
        # id 0 is kept for Program, which program() fills in last
        self.nodes = [AstNode(0, "Program", None, ())]

    def peek(self, offset: int = 0) -> tuple[str, str, int, int]:
        # never past EOF: only a token other than EOF is ever consumed
        return self.tokens[self.pos + offset]

    def at(self, text: str) -> bool:
        return self.tokens[self.pos][1] == text

    def error(self, message: str) -> MiniLangSyntaxError:
        _, _, line, col = self.peek()
        return MiniLangSyntaxError(message, line, col)

    def expect(self, want: str) -> str:
        """Consume the token with text `want`, or any identifier if `want`
        is "IDENT", and return its text."""
        kind, text, _, _ = self.peek()
        if (kind if want == "IDENT" else text) != want:
            raise self.error(f"expected {want!r}, found {text or 'end of input'!r}")
        self.pos += 1
        return text

    def enter(self) -> None:
        """Open one nesting level at the current token."""
        self.depth += 1
        if self.depth > MAX_NESTING_DEPTH:
            raise self.error(f"nesting deeper than {MAX_NESTING_DEPTH} levels")

    def node(self, node_type: str, children: Sequence[int] = (), value: str | None = None) -> int:
        self.nodes.append(AstNode(len(self.nodes), node_type, value, tuple(children)))
        return len(self.nodes) - 1

    # -- grammar --------------------------------------------------------

    def program(self) -> None:
        stmts = []
        while self.peek()[0] != "EOF":
            stmts.append(self.statement())
        if not stmts:
            raise self.error("empty program")
        self.nodes[0] = AstNode(0, "Program", None, tuple(stmts))

    def statement(self) -> int:
        kind, text, _, _ = self.peek()
        if text == "function":
            return self.func_decl()
        if text == "if":
            return self.if_stmt()
        if text == "while":
            return self.while_stmt()
        if text == "else":
            raise self.error("unexpected keyword 'else'")
        if text == "return":
            self.pos += 1
            node_type, children = "ReturnStatement", []
        elif kind == "IDENT" and self.peek(1)[1] == "=":
            node_type, children = "Assignment", [self.ident()]
            self.pos += 1  # "="
        else:
            node_type, children = "ExpressionStatement", []
        children.append(self.expr())
        self.expect(";")
        return self.node(node_type, children)

    def func_decl(self) -> int:
        self.pos += 1  # "function"
        children = [self.ident()]
        self.expect("(")
        children += self.items(self.ident)
        children.append(self.block())
        return self.node("FunctionDecl", children)

    def if_stmt(self) -> int:
        self.pos += 1  # "if"
        children = [self.condition(), self.block()]
        if self.at("else"):
            self.pos += 1
            if self.at("if"):
                self.enter()
                children.append(self.if_stmt())
                self.depth -= 1
            else:
                children.append(self.block())
        return self.node("IfStatement", children)

    def while_stmt(self) -> int:
        self.pos += 1  # "while"
        return self.node("WhileStatement", [self.condition(), self.block()])

    def condition(self) -> int:
        self.expect("(")
        cond = self.expr()
        self.expect(")")
        return cond

    def block(self) -> int:
        self.enter()
        self.expect("{")
        stmts = [self.statement()]
        while not self.at("}"):
            if self.peek()[0] == "EOF":
                raise self.error("unterminated block")
            stmts.append(self.statement())
        self.pos += 1
        self.depth -= 1
        return self.node("Block", stmts)

    def items(self, item) -> list[int]:
        """Comma-separated items up to a closing ')', which is consumed."""
        items = []
        if not self.at(")"):
            items.append(item())
            while self.at(","):
                self.pos += 1
                items.append(item())
        self.expect(")")
        return items

    def expr(self, level: int = 0) -> int:
        """An expression of _BINARY_OPS[level] or a tighter level; binary
        operators associate left, but a comparison takes no second one."""
        node = self.expr(level + 1) if level < 2 else self.unary()
        while (op := self.peek()[1]) in _BINARY_OPS[level]:
            self.pos += 1
            right = self.expr(level + 1) if level < 2 else self.unary()
            node = self.node(f"BinaryOp({op})", [node, right])
            if level == 0:
                break
        return node

    def unary(self) -> int:
        if not self.at("-"):
            return self.primary()
        self.enter()
        self.pos += 1
        node = self.node("UnaryOp(-)", [self.unary()])
        self.depth -= 1
        return node

    def primary(self) -> int:
        kind, text, _, _ = self.peek()
        if kind in _LITERALS:
            self.pos += 1
            return self.node(_LITERALS[kind], value=text)
        if kind == "IDENT" and self.peek(1)[1] == "(":
            children = [self.ident()]
            self.enter()
            self.pos += 1  # "("
            children += self.items(self.expr)
            self.depth -= 1
            return self.node("Call", children)
        if kind == "IDENT":
            return self.ident()
        if text == "(":
            self.enter()
            self.pos += 1
            node = self.expr()
            self.expect(")")
            self.depth -= 1
            return node
        raise self.error(f"expected expression, found {text or 'end of input'!r}")

    def ident(self) -> int:
        return self.node("Identifier", value=self.expect("IDENT"))


def parse_minilang(source: str) -> Ast:
    """Parse MiniLang source text into a canonical tree.

    Raises MiniLangSyntaxError (with line and column) on any grammar
    violation, including empty programs and nesting deeper than
    MAX_NESTING_DEPTH.
    """
    parser = _Parser(_tokenize(source))
    parser.program()
    return Ast(parser.nodes)
