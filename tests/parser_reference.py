"""The reference front end: the tokenizer and parser as they were when the
tokenizer built one ``Token`` per token from one regex match per token and
per blank, and the parser read them through ``peek``/``advance``/``accept``.
``surface.parse``, ``parse_expression`` and ``parse_type`` must give trees
``==`` to these, or raise the same exception class with the same message,
line and column."""

from __future__ import annotations

import re

from ttkernel.errors import ParseError, ResourceExhausted
from ttkernel.surface import (
    KEYWORDS,
    SApp,
    SDefine,
    SInd,
    SLam,
    SNum,
    SPostulateTm,
    SPostulateTy,
    SSucc,
    STyName,
    STyNat,
    STyPi,
    SVar,
)
from ttkernel.syntax import Node, node

# One alternative per token class; blanks and comments match no group.
_TOKEN = re.compile(
    r"(?P<newline>\n)|[ \t\r]+|--[^\n]*"
    r"|(?P<punct>:=|->|=>|[():;.\\])"
    r"|(?P<num>\d+)"
    r"|(?P<word>[^\W\d][\w']*)"
    r"|(?P<bad>.)"
)


@node
class Token(Node):
    kind: str
    text: str
    line: int
    col: int


def tokenize(source: str) -> list[Token]:
    toks = []
    line, bol = 1, 0  # bol: the offset where the current line begins
    for m in _TOKEN.finditer(source):
        kind, text = m.lastgroup, m.group()
        if kind == "newline":
            line, bol = line + 1, m.end()
        elif kind is not None:
            col = m.start() - bol + 1
            # \w also holds numeric characters such as '²', which start no word
            if kind == "bad" or kind == "word" and not (text[0].isalpha() or text[0] == "_"):
                raise ParseError(f"unexpected character {text[0]!r}", line, col)
            if kind == "punct" or text in KEYWORDS:
                kind = text
            elif kind == "word":
                kind = "ident"
            toks.append(Token(kind, text, line, col))
    toks.append(Token("eof", "", line, len(source) - bol + 1))
    return toks



_ATOM_START = {"ident", "num", "zero", "succ", "("}


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.toks = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.toks[self.pos]  # pos never passes the eof token

    def advance(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def accept(self, kind: str) -> Token | None:
        """Consume and return the next token if it is of ``kind``."""
        return self.advance() if self.toks[self.pos].kind == kind else None

    def expect(self, kind: str) -> Token:
        return self.accept(kind) or self.fail(f"'{kind}'")

    def fail(self, expected: str):
        t = self.peek()
        raise ParseError(f"expected {expected}, found '{t.text or 'end of input'}'", t.line, t.col)

    def loc(self) -> tuple[int, int]:
        t = self.peek()
        return (t.line, t.col)

    def at_binder(self) -> bool:
        """At ``( IDENT :``, the domain of a dependent arrow."""
        return [t.kind for t in self.toks[self.pos : self.pos + 3]] == ["(", "ident", ":"]

    # declarations

    def file(self) -> list:
        decls = []
        while self.peek().kind != "eof":
            decls.append(self.decl())
        return decls

    def decl(self):
        loc = self.loc()
        if self.accept("postulate"):
            name = self.expect("ident").text
            if self.accept(":"):
                return SPostulateTm(name, self.ty(), loc)
            params = []
            while self.accept("("):
                pname = self.expect("ident").text
                self.expect(":")
                params.append((pname, self.ty()))
                self.expect(")")
            return SPostulateTy(name, tuple(params), loc)
        if self.accept("def"):
            name = self.expect("ident").text
            self.expect(":")
            ty = self.ty()
            self.expect(":=")
            return SDefine(name, ty, self.tm(), loc)
        self.fail("'postulate' or 'def'")

    # types

    def ty(self):
        loc = self.loc()
        if self.at_binder():
            self.advance()
            pname = self.expect("ident").text
            self.expect(":")
            dom = self.ty()
            self.expect(")")
            self.expect("->")
            return STyPi(pname, dom, self.ty(), loc)
        left = self.ty1()
        return STyPi(None, left, self.ty(), loc) if self.accept("->") else left

    def ty1(self):
        loc = self.loc()
        if self.accept("Nat"):
            return STyNat(loc)
        if t := self.accept("ident"):
            args = []
            while self._starts_atom():
                args.append(self.atom())
            return STyName(t.text, tuple(args), loc)
        if self.accept("("):
            ty = self.ty()
            self.expect(")")
            return ty
        self.fail("a type")

    # terms

    def tm(self):
        loc = self.loc()
        if t := self.accept("\\") or self.accept("fun"):
            name = self.expect("ident").text
            self.expect("." if t.kind == "\\" else "=>")
            return SLam(name, self.tm(), loc)
        if self.accept("ind"):
            self.expect("(")
            scrut = self.tm()
            self.expect(";")
            mvar = self.expect("ident").text
            self.expect(".")
            motive = self.ty()
            self.expect(";")
            zcase = self.tm()
            self.expect(";")
            pvar = self.expect("ident").text
            rvar = self.expect("ident").text
            self.expect(".")
            scase = self.tm()
            self.expect(")")
            return SInd(scrut, mvar, motive, zcase, pvar, rvar, scase, loc)
        t = self.atom()
        while self._starts_atom():
            t = SApp(t, self.atom(), t.loc)
        return t

    def _starts_atom(self) -> bool:
        kind = self.peek().kind
        return kind in _ATOM_START and not (kind == "(" and self.at_binder())

    def atom(self):
        loc = self.loc()
        if t := self.accept("ident"):
            return SVar(t.text, loc)
        if t := self.accept("num"):
            try:
                return SNum(int(t.text), loc)
            except ValueError:  # more digits than int() converts
                raise ResourceExhausted(f"numeral of {len(t.text)} digits is too long", *loc) from None
        if self.accept("zero"):
            return SNum(0, loc)
        if self.accept("succ"):
            k = 1
            while self.accept("succ"):
                k += 1
            return SSucc(k, self.atom(), loc)
        if self.accept("("):
            tm = self.tm()
            self.expect(")")
            return tm
        self.fail("a term")


def _parse_whole(source: str, rule):
    """Run ``rule`` on the tokens of ``source``, which it must consume."""
    p = _Parser(tokenize(source))
    out = rule(p)
    p.expect("eof")
    return out


def parse(source: str) -> list:
    """Parse a file of declarations."""
    return _parse_whole(source, _Parser.file)


def parse_expression(source: str):
    return _parse_whole(source, _Parser.tm)


def parse_type(source: str):
    return _parse_whole(source, _Parser.ty)

