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

Comments run from '//' to end of line. Blocks are non-empty and return
takes an expression, so interior nodes always have children. Operator
tokens fold into the node type (BinaryOp(+), UnaryOp(-)); only
identifiers and literals become leaves. Blocks, `else if` links,
parenthesised expressions, call argument lists and unary operators
together nest at most MAX_NESTING_DEPTH levels deep.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .astcore import Ast, AstNode
from .errors import MiniLangSyntaxError

_KEYWORDS = frozenset({"function", "if", "else", "while", "return"})
_TWO_CHAR_OPS = ("<=", ">=", "==", "!=")
_ONE_CHAR = "(){},;=<>+-*/%"
_CMP_OPS = frozenset({"<", ">", "<=", ">=", "==", "!="})

# Each nesting level costs the parser at most six Python frames, so a
# source within this limit stays far below the interpreter's default
# recursion limit of 1000 frames.
MAX_NESTING_DEPTH = 100


@dataclass(frozen=True)
class _Token:
    kind: str  # IDENT, NUMBER, STRING, KEYWORD, OP, EOF
    text: str
    line: int
    col: int


def _tokenize(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    line = 1
    col = 1
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if source.startswith("//", i):
            while i < n and source[i] != "\n":
                i += 1
            continue
        start_line, start_col = line, col
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            text = source[i:j]
            kind = "KEYWORD" if text in _KEYWORDS else "IDENT"
            tokens.append(_Token(kind, text, start_line, start_col))
            col += j - i
            i = j
            continue
        if ch.isdigit():
            j = i
            while j < n and source[j].isdigit():
                j += 1
            if j < n and source[j] == "." and j + 1 < n and source[j + 1].isdigit():
                j += 1
                while j < n and source[j].isdigit():
                    j += 1
            tokens.append(_Token("NUMBER", source[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        if ch == '"':
            j = i + 1
            while j < n and source[j] != '"':
                if source[j] == "\n":
                    raise MiniLangSyntaxError("unterminated string", start_line, start_col)
                if source[j] == "\\" and j + 1 < n:
                    j += 1
                j += 1
            if j >= n:
                raise MiniLangSyntaxError("unterminated string", start_line, start_col)
            j += 1
            tokens.append(_Token("STRING", source[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        two = source[i : i + 2]
        if two in _TWO_CHAR_OPS:
            tokens.append(_Token("OP", two, start_line, start_col))
            i += 2
            col += 2
            continue
        if ch in _ONE_CHAR:
            tokens.append(_Token("OP", ch, start_line, start_col))
            i += 1
            col += 1
            continue
        raise MiniLangSyntaxError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("EOF", "", line, col))
    return tokens


@dataclass
class _Tmp:
    """Parser-internal node; ids are assigned afterwards in preorder."""

    node_type: str
    value: str | None = None
    children: list["_Tmp"] = field(default_factory=list)


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self, offset: int = 0) -> _Token:
        idx = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[idx]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def expect(self, kind: str, text: str | None = None) -> _Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            got = tok.text if tok.text else "end of input"
            raise MiniLangSyntaxError(f"expected {want!r}, found {got!r}", tok.line, tok.col)
        return self.advance()

    def at_op(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "OP" and tok.text == text

    def enter(self) -> None:
        """Open one nesting level at the current token."""
        self.depth += 1
        if self.depth > MAX_NESTING_DEPTH:
            tok = self.peek()
            raise MiniLangSyntaxError(
                f"nesting deeper than {MAX_NESTING_DEPTH} levels", tok.line, tok.col
            )

    # -- grammar --------------------------------------------------------

    def program(self) -> _Tmp:
        stmts = []
        while self.peek().kind != "EOF":
            stmts.append(self.statement())
        if not stmts:
            tok = self.peek()
            raise MiniLangSyntaxError("empty program", tok.line, tok.col)
        return _Tmp("Program", children=stmts)

    def statement(self) -> _Tmp:
        tok = self.peek()
        if tok.kind == "KEYWORD":
            if tok.text == "function":
                return self.func_decl()
            if tok.text == "if":
                return self.if_stmt()
            if tok.text == "while":
                return self.while_stmt()
            if tok.text == "return":
                return self.return_stmt()
            raise MiniLangSyntaxError(f"unexpected keyword {tok.text!r}", tok.line, tok.col)
        if tok.kind == "IDENT" and self.peek(1).kind == "OP" and self.peek(1).text == "=":
            return self.assignment()
        return self.expr_stmt()

    def func_decl(self) -> _Tmp:
        self.expect("KEYWORD", "function")
        name = self.expect("IDENT")
        children = [_Tmp("Identifier", name.text)]
        self.expect("OP", "(")
        if not self.at_op(")"):
            children.append(_Tmp("Identifier", self.expect("IDENT").text))
            while self.at_op(","):
                self.advance()
                children.append(_Tmp("Identifier", self.expect("IDENT").text))
        self.expect("OP", ")")
        children.append(self.block())
        return _Tmp("FunctionDecl", children=children)

    def if_stmt(self) -> _Tmp:
        self.expect("KEYWORD", "if")
        self.expect("OP", "(")
        children = [self.expr()]
        self.expect("OP", ")")
        children.append(self.block())
        if self.peek().kind == "KEYWORD" and self.peek().text == "else":
            self.advance()
            if self.peek().kind == "KEYWORD" and self.peek().text == "if":
                self.enter()
                children.append(self.if_stmt())
                self.depth -= 1
            else:
                children.append(self.block())
        return _Tmp("IfStatement", children=children)

    def while_stmt(self) -> _Tmp:
        self.expect("KEYWORD", "while")
        self.expect("OP", "(")
        children = [self.expr()]
        self.expect("OP", ")")
        children.append(self.block())
        return _Tmp("WhileStatement", children=children)

    def return_stmt(self) -> _Tmp:
        self.expect("KEYWORD", "return")
        children = [self.expr()]
        self.expect("OP", ";")
        return _Tmp("ReturnStatement", children=children)

    def assignment(self) -> _Tmp:
        target = self.expect("IDENT")
        self.expect("OP", "=")
        children = [_Tmp("Identifier", target.text), self.expr()]
        self.expect("OP", ";")
        return _Tmp("Assignment", children=children)

    def expr_stmt(self) -> _Tmp:
        children = [self.expr()]
        self.expect("OP", ";")
        return _Tmp("ExpressionStatement", children=children)

    def block(self) -> _Tmp:
        self.enter()
        self.expect("OP", "{")
        stmts = [self.statement()]
        while not self.at_op("}"):
            if self.peek().kind == "EOF":
                tok = self.peek()
                raise MiniLangSyntaxError("unterminated block", tok.line, tok.col)
            stmts.append(self.statement())
        self.expect("OP", "}")
        self.depth -= 1
        return _Tmp("Block", children=stmts)

    def expr(self) -> _Tmp:
        left = self.additive()
        tok = self.peek()
        if tok.kind == "OP" and tok.text in _CMP_OPS:
            self.advance()
            right = self.additive()
            return _Tmp(f"BinaryOp({tok.text})", children=[left, right])
        return left

    def additive(self) -> _Tmp:
        node = self.term()
        while self.peek().kind == "OP" and self.peek().text in ("+", "-"):
            op = self.advance().text
            node = _Tmp(f"BinaryOp({op})", children=[node, self.term()])
        return node

    def term(self) -> _Tmp:
        node = self.unary()
        while self.peek().kind == "OP" and self.peek().text in ("*", "/", "%"):
            op = self.advance().text
            node = _Tmp(f"BinaryOp({op})", children=[node, self.unary()])
        return node

    def unary(self) -> _Tmp:
        if self.at_op("-"):
            self.enter()
            self.advance()
            node = _Tmp("UnaryOp(-)", children=[self.unary()])
            self.depth -= 1
            return node
        return self.primary()

    def primary(self) -> _Tmp:
        tok = self.peek()
        if tok.kind == "NUMBER":
            self.advance()
            return _Tmp("NumberLiteral", tok.text)
        if tok.kind == "STRING":
            self.advance()
            return _Tmp("StringLiteral", tok.text)
        if tok.kind == "IDENT":
            if self.peek(1).kind == "OP" and self.peek(1).text == "(":
                return self.call()
            self.advance()
            return _Tmp("Identifier", tok.text)
        if self.at_op("("):
            self.enter()
            self.advance()
            node = self.expr()
            self.expect("OP", ")")
            self.depth -= 1
            return node
        got = tok.text if tok.text else "end of input"
        raise MiniLangSyntaxError(f"expected expression, found {got!r}", tok.line, tok.col)

    def call(self) -> _Tmp:
        callee = self.expect("IDENT")
        children = [_Tmp("Identifier", callee.text)]
        self.enter()
        self.expect("OP", "(")
        if not self.at_op(")"):
            children.append(self.expr())
            while self.at_op(","):
                self.advance()
                children.append(self.expr())
        self.expect("OP", ")")
        self.depth -= 1
        return _Tmp("Call", children=children)


def _emit(root: _Tmp) -> list[AstNode]:
    """Assign dense preorder ids in a single first-visit walk."""
    nodes: list[AstNode] = []
    children_of: list[list[int]] = []
    stack: list[tuple[_Tmp, int]] = [(root, -1)]
    while stack:
        tmp, parent = stack.pop()
        nid = len(nodes)
        nodes.append(AstNode(nid, tmp.node_type, tmp.value, ()))
        children_of.append([])
        if parent >= 0:
            children_of[parent].append(nid)
        stack.extend((child, nid) for child in reversed(tmp.children))
    return [
        AstNode(node.id, node.node_type, node.value, tuple(children_of[node.id]))
        for node in nodes
    ]


def parse_minilang(source: str) -> Ast:
    """Parse MiniLang source text into a canonical tree.

    Raises MiniLangSyntaxError (with line and column) on any grammar
    violation, including empty programs and nesting deeper than
    MAX_NESTING_DEPTH.
    """
    tokens = _tokenize(source)
    parser = _Parser(tokens)
    root = parser.program()
    tok = parser.peek()
    if tok.kind != "EOF":
        raise MiniLangSyntaxError(f"trailing input {tok.text!r}", tok.line, tok.col)
    return Ast(_emit(root))
