"""Seeded MiniLang program and summary generator for the benchmark.

Everything scriptsum sees in a benchmark run is a JSONL-style record made
here: {"code": <MiniLang source>, "summary": <text>}. The generator is
plain Python (no scriptsum, no numpy), so the program under test never
takes part in making its own inputs.

Programs are sequences of function declarations whose bodies mix
assignments, calls, if/else, while and return statements. The generator
counts the code tokens scriptsum will derive from each leaf as it writes
(one per camelCase word of an identifier, one per number or string
literal), so a record's token count lands within a few tokens of its
target whatever the seed. That keeps the cost of a record, which grows
with its length, nearly the same from seed to seed.

    python3 perfbench/gen.py --workload long-input --seed 3
"""

from __future__ import annotations

import argparse
import json
import random

# Identifier words: lowercase, alphabetic, none a MiniLang keyword, so a
# camelCase join splits back into exactly these words.
WORDS = (
    "add avg base buf count data delta diff done end flag found head idx "
    "item key left len limit list low high max mid min next node num out "
    "pos prev rate res right row col scale size step sum tail temp total "
    "value width height index offset queue stack table cache price tax "
    "score name text word line char byte block page user order cart item "
    "entry level depth span start stop mark seen ready rank weight cost "
    "bound slot frame chunk batch group part piece range shift mask bits "
    "sign unit tick time date year month hour rows cols grid cell path"
).split()

# Words for the summaries of the decoding workload.
SUMMARY_VERBS = (
    "compute return check find count update build sort merge parse scale "
    "clamp sum average swap reverse filter collect print store load"
).split()

VOCAB_SIZE = 5000  # target vocabulary size of the paper-decode workload
RESERVED = 6  # scriptsum reserves ids 0..5 (PAD, BOS, EOS, UNK, STR, NUM)

# The nested record: 300 levels of parentheses around one literal. It does
# not depend on the seed.
NEST_LEVELS = 300
NESTED_CODE = "value = " + "(" * NEST_LEVELS + "1" + ")" * NEST_LEVELS + ";\n"

# Token-length targets of the long-input records; two of the five regular
# records exceed scriptsum's 400-token source cap, so truncation runs.
LONG_TARGETS = (200, 240, 380, 460, 540)
PAPER_TARGET = 150
PAPER_RECORDS = 8
NODES_PER_TOKEN = 1.18
DRAFTS = 16


def lexicon(size: int = VOCAB_SIZE - RESERVED) -> list[str]:
    """`size` distinct lowercase pseudo-words, the same list every time."""
    onsets = "b c d f g h j k l m n p r s t v w z".split()
    vowels = "a e i o u".split()
    codas = ["", "n", "r", "s", "t", "l"]
    syllables = [o + v + c for o in onsets for v in vowels for c in codas]
    out = []
    for first in syllables:
        for second in syllables:
            out.append(first + second)
            if len(out) == size:
                return out
    raise ValueError(f"lexicon cannot supply {size} words")


class _Writer:
    """Writes one program while counting the code tokens and tree nodes it
    will yield."""

    def __init__(self, rng: random.Random, target: int):
        self.rng = rng
        self.target = target
        self.tokens = 0
        self.nodes = 1  # Program
        self.locals: list[str] = []

    def new_name(self) -> str:
        rng = self.rng
        words = [rng.choice(WORDS) for _ in range(rng.choice((1, 1, 2, 2, 3)))]
        self.tokens += len(words)
        self.nodes += 1
        return words[0] + "".join(w.capitalize() for w in words[1:])

    def use_name(self) -> str:
        if self.locals and self.rng.random() < 0.7:
            name = self.rng.choice(self.locals)
            self.tokens += _word_count(name)
            self.nodes += 1
            return name
        return self.new_name()

    def atom(self) -> str:
        roll = self.rng.random()
        if roll < 0.6:
            return self.use_name()
        self.tokens += 1
        self.nodes += 1
        if roll < 0.9:
            return str(self.rng.randrange(100))
        return '"' + self.rng.choice(WORDS) + '"'

    def expr(self, depth: int = 0) -> str:
        rng = self.rng
        roll = rng.random()
        if depth >= 3 or roll < 0.35:
            return self.atom()
        if roll < 0.8:
            self.nodes += 1
            op = rng.choice("+-*/%")
            return f"{self.expr(depth + 1)} {op} {self.expr(depth + 1)}"
        if roll < 0.9:
            return f"({self.expr(depth + 1)})"
        self.nodes += 1
        callee = self.new_name()
        args = ", ".join(self.expr(depth + 1) for _ in range(rng.randrange(1, 3)))
        return f"{callee}({args})"

    def cond(self) -> str:
        self.nodes += 1
        op = self.rng.choice(("<", ">", "<=", ">=", "==", "!="))
        return f"{self.expr(1)} {op} {self.expr(1)}"

    def statement(self, indent: str, depth: int) -> str:
        rng = self.rng
        self.nodes += 1  # the statement node
        if self.target - self.tokens < 30:
            # Near the target only short statements, so the count lands close.
            target = self.use_name()
            return f"{indent}{target} = {self.atom()};\n"
        roll = rng.random()
        if depth < 2 and roll < 0.15:
            body = self.block(indent, depth + 1, rng.randrange(1, 4))
            text = f"{indent}if ({self.cond()}) {body}"
            if rng.random() < 0.4:
                text += f" else {self.block(indent, depth + 1, rng.randrange(1, 3))}"
            return text + "\n"
        if depth < 2 and roll < 0.25:
            body = self.block(indent, depth + 1, rng.randrange(1, 4))
            return f"{indent}while ({self.cond()}) {body}\n"
        if roll < 0.35:
            return f"{indent}{self.expr(2) if rng.random() < 0.3 else self.call()};\n"
        target = self.use_name() if rng.random() < 0.5 else self.new_name()
        if target not in self.locals:
            self.locals.append(target)
        return f"{indent}{target} = {self.expr()};\n"

    def call(self) -> str:
        self.nodes += 1
        callee = self.new_name()
        return f"{callee}({', '.join(self.expr(2) for _ in range(self.rng.randrange(1, 4)))})"

    def block(self, indent: str, depth: int, n_statements: int) -> str:
        self.nodes += 1
        inner = indent + "  "
        body = "".join(self.statement(inner, depth) for _ in range(n_statements))
        return "{\n" + body + indent + "}"

    def function(self, budget: int) -> str:
        """One function declaration of roughly `budget` tokens."""
        self.locals = []
        self.nodes += 3  # FunctionDecl, its Block, its ReturnStatement
        start = self.tokens
        name = self.new_name()
        params = [self.new_name() for _ in range(self.rng.randrange(1, 4))]
        self.locals.extend(params)
        lines = []
        while self.tokens < min(start + budget, self.target - 3):
            lines.append(self.statement("  ", 0))
        lines.append(f"  return {self.atom()};\n")
        return f"function {name}({', '.join(params)}) {{\n{''.join(lines)}}}\n"


def _word_count(name: str) -> int:
    return 1 + sum(ch.isupper() for ch in name)


def _draft(rng: random.Random, target_tokens: int) -> tuple[str, int, int]:
    writer = _Writer(rng, target_tokens)
    parts = []
    while writer.tokens < target_tokens - 3:
        budget = rng.randrange(40, 90)
        if target_tokens - writer.tokens - budget < 30:
            budget = target_tokens - writer.tokens  # the last function
        parts.append(writer.function(budget))
    return "".join(parts), writer.tokens, writer.nodes


def program(rng: random.Random, target_tokens: int) -> tuple[str, int, int]:
    """MiniLang source of about `target_tokens` code tokens, with its token
    and node counts.

    Of DRAFTS drafts it keeps the one whose node count is closest to
    NODES_PER_TOKEN * target_tokens: tree-distance cost grows with the cube
    of the node count, so holding it steady holds the ingest cost steady.
    """
    target_nodes = NODES_PER_TOKEN * target_tokens
    drafts = [_draft(rng, target_tokens) for _ in range(DRAFTS)]
    return min(drafts, key=lambda d: abs(d[2] - target_nodes))


def summary(rng: random.Random, words: list[str]) -> str:
    """A short lowercase summary: a verb and five to nine lexicon words."""
    picked = [rng.choice(words) for _ in range(rng.randrange(5, 10))]
    return " ".join([rng.choice(SUMMARY_VERBS)] + picked)


def long_input_records(seed: int) -> list[dict]:
    """The long-input records: five regular records, then the nested one."""
    rng = random.Random(f"long-input/{seed}")
    records = []
    for target in LONG_TARGETS:
        code, _, _ = program(rng, target)
        records.append({"code": code, "summary": summary(rng, WORDS)})
    records.append({"code": NESTED_CODE, "summary": "compute a deeply nested value"})
    return records


def paper_decode_records(seed: int) -> list[dict]:
    """PAPER_RECORDS records of about 150 tokens with summaries over the lexicon."""
    rng = random.Random(f"paper-decode/{seed}")
    words = lexicon()
    return [
        {"code": program(rng, PAPER_TARGET)[0], "summary": summary(rng, words)}
        for _ in range(PAPER_RECORDS)
    ]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("long-input", "paper-decode"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    make = long_input_records if args.workload == "long-input" else paper_decode_records
    for rec in make(args.seed):
        print(json.dumps(rec))


if __name__ == "__main__":
    main()
