"""Surface syntax: tokenizer, parser, name resolution and pretty-printer.

The concrete grammar:

    file    := decl*
    decl    := "postulate" IDENT                      -- 0-ary type constant
             | "postulate" IDENT ("(" IDENT ":" ty ")")+
             | "postulate" IDENT ":" ty               -- term constant
             | "def" IDENT ":" ty ":=" tm
    ty      := "(" IDENT ":" ty ")" "->" ty | ty1 "->" ty | ty1
    ty1     := "Nat" | IDENT tmAtom* | "(" ty ")"
    tm      := "\\" IDENT "." tm | "fun" IDENT "=>" tm
             | "ind" "(" tm ";" IDENT "." ty ";" tm ";" IDENT IDENT "." tm ")"
             | tmApp
    tmApp   := tmApp tmAtom | tmAtom
    tmAtom  := IDENT | "zero" | "succ" tmAtom | NUMERAL | "(" tm ")"

NUMERAL is a run of decimal digits (Unicode category Nd) and desugars to
one successor node over zero; a run of "succ" tokens is one node too, and
the printer writes k successors over another base as such a run. IDENT
starts with a letter or "_" and continues with letters, numeric characters
(such as "2" or "²"), "_" and "'"; keywords are reserved. Blanks are space
and tab; a line ends at "\r\n", "\r" or "\n", and "--" comments run to the
end of the line. Any other character is an error. The tokenizer matches
each line once per token and returns parallel lists of kinds, texts, lines
and columns, which the parser reads by index.

The parser builds core syntax: a bound name is its de Bruijn ``Var``, a
free name a ``Const`` and a type name a ``TyConst``. It records each free
name and type constant it meets, with its place, and elaboration checks
them against the signature: a term constant's ``Const`` is its head, so
elaboration returns the parsed tree itself.
"""

from __future__ import annotations

import re
from itertools import count, islice

from .check import declare
from .errors import ArityMismatch, CheckError, ParseError, ResourceExhausted, UnknownName
from .signature import Declaration, Define, PostulateTm, PostulateTy, Signature
from .syntax import (
    App,
    Context,
    Const,
    Lam,
    Nat,
    NatInd,
    Pi,
    Succ,
    Term,
    Ty,
    TyConst,
    Var,
    Zero,
    numeral,
    split_pi,
    succ,
    uses_index,
    walk,
)

KEYWORDS = {"postulate", "def", "Nat", "zero", "succ", "ind", "fun"}

# Matched within a line: the blanks and comment before a token, then the
# token, which is empty at the end of the line. A character that starts no
# token matches alone.
_TOKEN = re.compile(r"([ \t]*(?:--.*)?)(:=|->|=>|[():;.\\]|\d+|[^\W\d][\w']*|.?)")
_LINE_END = re.compile(r"\r\n?|\n")  # not str.splitlines, which also ends lines at \f and \x85
_INTERNED = {k: k for k in (*KEYWORDS, ":=", "->", "=>", "(", ")", ":", ";", ".", "\\")}


def tokenize(source: str) -> tuple[list[str], list[str], list[int], list[int]]:
    """The kinds, texts, lines and columns of the tokens of ``source``, as
    four parallel lists that end with an ``eof`` token."""
    kinds, texts, lines, cols = [], [], [], []
    for line, text in enumerate(_LINE_END.split(source), 1):
        col = 1
        for blank, tok in _TOKEN.findall(text):
            col += len(blank)
            if not tok:
                break
            kind = _INTERNED.get(tok)
            if kind is not None:
                tok = kind
            elif tok[0].isalpha() or tok[0] == "_":
                kind = "ident"
            elif tok[0].isdecimal():
                kind = "num"
            else:  # \w also holds numeric characters such as '²', which start no word
                raise ParseError(f"unexpected character {tok[0]!r}", line, col)
            kinds.append(kind)
            texts.append(tok)
            lines.append(line)
            cols.append(col)
            col += len(tok)
    kinds.append("eof")
    texts.append("")
    lines.append(line)
    cols.append(len(text) + 1)
    return kinds, texts, lines, cols


# ---------------------------------------------------------------------------
# Parsing, straight to core syntax

_ATOM_START = {"ident", "num", "zero", "succ", "("}


class _Parser:
    """Recursive descent over ``tokenize``'s lists; ``pos`` indexes the next
    token. ``scope`` holds the bound names, outermost first. ``uses`` holds
    one ``(name, arity, line, col)`` per free name (arity None) and per type
    constant, in the order elaboration checks them: fields in source order,
    a type constant before its arguments, and an application's arguments
    before its head, through parentheses. ``head`` is where the uses of the
    head of the application parsed last begin."""

    def __init__(self, source: str, scope: tuple[str, ...] = ()):
        self.kinds, self.texts, self.lines, self.cols = tokenize(source)
        self.pos = 0
        self.scope = list(scope)
        self.uses = []
        self.head = 0

    def expect(self, kind: str) -> str:
        """Consume a token of ``kind`` and return its text."""
        i = self.pos
        if self.kinds[i] != kind:
            self.fail(f"'{kind}'")
        self.pos = i + 1
        return self.texts[i]

    def fail(self, expected: str):
        i = self.pos
        found = self.texts[i] or "end of input"
        raise ParseError(f"expected {expected}, found '{found}'", self.lines[i], self.cols[i])

    def starts_atom(self) -> bool:
        """At a term atom, but not at ``( IDENT :``, the domain of a dependent arrow."""
        kinds, i = self.kinds, self.pos
        kind = kinds[i]
        return kind in _ATOM_START and not (kind == "(" and kinds[i + 1] == "ident" and kinds[i + 2] == ":")

    # declarations

    def file(self) -> list:
        decls = []
        while self.kinds[self.pos] != "eof":
            decls.append(self.decl())
        return decls

    def decl(self):
        """A declaration, with its own uses and its place."""
        i = self.pos
        kind, loc = self.kinds[i], (self.lines[i], self.cols[i])
        self.uses, self.scope = uses, scope = [], []
        if kind == "postulate":
            self.pos = i + 1
            name = self.expect("ident")
            if self.kinds[self.pos] == ":":
                self.pos += 1
                return PostulateTm(name, *split_pi(self.ty())), uses, loc
            params = []
            while self.kinds[self.pos] == "(":
                self.pos += 1
                pname = self.expect("ident")
                self.expect(":")
                params.append(self.ty())
                scope.append(pname)  # in scope in the parameters after it
                self.expect(")")
            return PostulateTy(name, tuple(params)), uses, loc
        if kind == "def":
            self.pos = i + 1
            name = self.expect("ident")
            self.expect(":")
            ty = self.ty()
            self.expect(":=")
            return Define(name, ty, self.tm()), uses, loc
        self.fail("'postulate' or 'def'")

    # types

    def ty(self):
        kinds, i = self.kinds, self.pos
        if kinds[i] == "(" and kinds[i + 1] == "ident" and kinds[i + 2] == ":":
            self.pos = i + 3
            dom = self.ty()
            self.expect(")")
            self.expect("->")
            param = self.texts[i + 1]
        else:
            dom = self.ty1()
            if kinds[self.pos] != "->":
                return dom
            self.pos += 1
            param = "_"  # which names the arrow's binder in its codomain
        scope = self.scope
        scope.append(param)
        cod = self.ty()
        scope.pop()
        return Pi(dom, cod)

    def ty1(self):
        i = self.pos
        kind = self.kinds[i]
        self.pos = i + 1
        if kind == "Nat":
            return Nat()
        if kind == "ident":
            uses = self.uses
            at = len(uses)
            uses.append(None)  # the constant's place, held before its arguments' uses
            args = []
            while self.starts_atom():
                args.append(self.atom())
            name = self.texts[i]
            uses[at] = (name, len(args), self.lines[i], self.cols[i])
            return TyConst(name, tuple(args))
        if kind == "(":
            ty = self.ty()
            self.expect(")")
            return ty
        self.pos = i
        self.fail("a type")

    # terms

    def tm(self):
        i = self.pos
        kind = self.kinds[i]
        if kind == "\\" or kind == "fun":
            self.pos = i + 1
            scope = self.scope
            scope.append(self.expect("ident"))
            self.expect("." if kind == "\\" else "=>")
            body = self.tm()
            scope.pop()
            return Lam(body)
        if kind == "ind":
            self.pos = i + 1
            self.expect("(")
            scrut = self.tm()
            self.expect(";")
            scope = self.scope
            scope.append(self.expect("ident"))
            self.expect(".")
            motive = self.ty()
            scope.pop()
            self.expect(";")
            zcase = self.tm()
            self.expect(";")
            scope.append(self.expect("ident"))
            scope.append(self.expect("ident"))
            self.expect(".")
            scase = self.tm()
            del scope[-2:]
            self.expect(")")
            return NatInd(scrut, motive, zcase, scase)
        uses = self.uses
        head = len(uses)
        t = self.atom()
        if not self.starts_atom():
            return t
        if t.__class__ is App:  # a parenthesized application: its head's uses go last
            head = self.head
        mid = len(uses)
        while self.starts_atom():
            t = App(t, self.atom())
        if head < mid < len(uses):
            uses[head:] = uses[mid:] + uses[head:mid]
        self.head = len(uses) - mid + head
        return t

    def atom(self):
        kinds, i = self.kinds, self.pos
        kind = kinds[i]
        self.pos = i + 1
        if kind == "ident":
            name, scope = self.texts[i], self.scope
            if name in scope:  # the innermost binder of that name
                return Var(scope[::-1].index(name))
            self.uses.append((name, None, self.lines[i], self.cols[i]))
            return Const(name)
        if kind == "num":
            try:
                return numeral(int(self.texts[i]))
            except ValueError:  # more digits than int() converts
                loc = self.lines[i], self.cols[i]
                raise ResourceExhausted(f"numeral of {len(self.texts[i])} digits is too long", *loc) from None
        if kind == "zero":
            return Zero()
        if kind == "succ":
            # ``succ+ (`` over a term that starts with ``succ`` nests in a loop:
            # each level keeps its run length, and is closed, innermost first,
            # by the rest of its parenthesized application and its ``)``
            uses = self.uses
            head = len(uses)
            levels = []
            while True:
                while kinds[self.pos] == "succ":
                    self.pos += 1
                if kinds[self.pos] != "(" or kinds[self.pos + 1] != "succ":
                    break
                levels.append(self.pos - i)
                i = self.pos + 1
                self.pos = i + 1
            t = succ(self.pos - i, self.atom())
            for k in reversed(levels):
                mid = len(uses)
                while self.starts_atom():
                    t = App(t, self.atom())
                if head < mid < len(uses):  # every level's head starts where the first did
                    uses[head:] = uses[mid:] + uses[head:mid]
                self.expect(")")
                t = succ(k, t)
            return t
        if kind == "(":
            tm = self.tm()
            self.expect(")")
            return tm
        self.pos = i
        self.fail("a term")


def _parse_whole(source: str, rule, scope: tuple[str, ...] = ()):
    """``(tree, uses, source)``: ``rule`` run on the tokens of ``source``,
    which it must consume, with the names ``scope`` bound."""
    p = _Parser(source, scope)
    out = rule(p)
    p.expect("eof")
    return out, p.uses, source


def parse(source: str) -> list:
    """Parse a file: one ``(declaration, uses, (line, col))`` per declaration."""
    return _parse_whole(source, _Parser.file)[0]


def parse_expression(source: str):
    return _parse_whole(source, _Parser.tm)


def parse_type(source: str):
    return _parse_whole(source, _Parser.ty)


# ---------------------------------------------------------------------------
# Elaboration: the parsed names checked against the signature


def elaborate(decls) -> Signature:
    """Resolve and check a parsed file."""
    sig = Signature()
    for d, uses, loc in decls:
        try:
            _resolve(sig, uses)
            sig = declare(sig, d)
        except CheckError as e:
            if e.line is None:
                e.line, e.col = loc
            raise
    return sig


def elab_ty(sig: Signature, names: tuple[str, ...], parsed) -> Ty:
    """The parsed type, under the bound ``names``, once ``sig`` resolves its
    names. The parser binds names, so under ``names`` it parses again."""
    tree, uses, source = _parse_whole(parsed[2], _Parser.ty, names) if names else parsed
    _resolve(sig, uses)
    return tree


def elab_tm(sig: Signature, names: tuple[str, ...], parsed) -> Term:
    """The parsed term, as ``elab_ty`` gives the parsed type."""
    tree, uses, source = _parse_whole(parsed[2], _Parser.tm, names) if names else parsed
    _resolve(sig, uses)
    return tree


def _resolve(sig: Signature, uses) -> None:
    """Raise at the first use ``sig`` does not declare: a free name that is
    no term constant, or a type name that is no type constant of its arity."""
    for name, arity, line, col in uses:
        if arity is None:
            cls = sig.find(Declaration, name).__class__
            if cls is PostulateTm or cls is Define:
                continue
            if cls is PostulateTy:
                raise UnknownName(f"'{name}' is a type constant, not a term", line, col)
            raise UnknownName(f"unknown identifier '{name}'", line, col)
        decl = sig.find(PostulateTy, name)
        if decl is None:
            raise UnknownName(f"'{name}' is not a type constant", line, col)
        if arity != len(decl.params):
            raise ArityMismatch(f"'{name}' expects {len(decl.params)} argument(s), got {arity}", line, col)


# ---------------------------------------------------------------------------
# Pretty-printing: emits re-parseable surface text


def _constant_names(*trees) -> set[str]:
    """The names the constants in ``trees`` use."""
    return {x.name for t in trees for x in walk(t) if x.__class__ in (TyConst, Const)}


class _Printer:
    """Prints one tree, ``root``. A binder is named ``x<k>`` for the least
    ``k`` that names no variable in scope and no constant ``root`` names,
    which the binder would capture; those constants are collected at the
    first binder, so a tree without one costs no walk."""

    def __init__(self, root):
        self.root, self.consts = root, None

    def fresh(self, names: tuple[str, ...]) -> str:
        if self.consts is None:
            self.consts = _constant_names(self.root)
        taken = self.consts.union(names)
        k = 0
        while f"x{k}" in taken:
            k += 1
        return f"x{k}"

    def tm(self, t: Term, names: tuple[str, ...], prec: int) -> str:
        cls = t.__class__
        if cls is Var:
            i = t.index
            return names[len(names) - 1 - i] if 0 <= i < len(names) else f"?v{i}"
        if cls is App:
            return _wrap(f"{self.tm(t.fn, names, 1)} {self.tm(t.arg, names, 2)}", prec > 1)
        if cls is Succ:
            if t.base.__class__ is Zero:
                try:
                    return str(t.k)
                except ValueError:  # more digits than str() converts
                    raise ResourceExhausted("numeral is too long to print") from None
            return _wrap("succ " * t.k + self.tm(t.base, names, 2), prec > 1)
        if cls is Zero:
            return "zero"
        if cls is Const:
            return t.name
        if cls is Lam:
            x = self.fresh(names)
            return _wrap(f"\\{x}. {self.tm(t.body, names + (x,), 0)}", prec > 0)
        if cls is NatInd:
            x = self.fresh(names)
            p = self.fresh(names)
            r = self.fresh(names + (p,))
            body = (
                f"ind({self.tm(t.scrut, names, 0)}; "
                f"{x}. {self.ty(t.motive, names + (x,), 0)}; "
                f"{self.tm(t.zcase, names, 0)}; "
                f"{p} {r}. {self.tm(t.scase, names + (p, r), 0)})"
            )
            return _wrap(body, prec > 0)
        raise AssertionError(f"not a term: {t!r}")

    def ty(self, ty: Ty, names: tuple[str, ...], prec: int) -> str:
        cls = ty.__class__
        if cls is Nat:
            return "Nat"
        if cls is Pi:
            dom, cod = ty.dom, ty.cod
            if uses_index(cod, 0):
                x = self.fresh(names)
                s = f"({x} : {self.ty(dom, names, 0)}) -> {self.ty(cod, names + (x,), 0)}"
            else:
                s = f"{self.ty(dom, names, 1)} -> {self.ty(cod, names + ('_',), 0)}"
            return _wrap(s, prec > 0)
        if cls is TyConst:
            c, args = ty.name, ty.args
            if not args:
                return c
            parts = " ".join(self.tm(a, names, 2) for a in args)
            return _wrap(f"{c} {parts}", prec > 1)
        raise AssertionError(f"not a type: {ty!r}")


def print_tm(t: Term, names: tuple[str, ...] = ()) -> str:
    return _Printer(t).tm(t, names, 0)


def print_ty(ty: Ty, names: tuple[str, ...] = ()) -> str:
    return _Printer(ty).ty(ty, names, 0)


def _wrap(s: str, needed: bool) -> str:
    return f"({s})" if needed else s


def context_names(depth: int, *trees) -> tuple[str, ...]:
    """Names for a context's variables, outermost first, to print ``trees``
    in: by the binders' rule, ``v<k>`` for each least ``k`` that names no
    variable before it and no constant ``trees`` use."""
    taken = _constant_names(*trees)
    return tuple(islice((v for k in count() if (v := f"v{k}") not in taken), depth))


def print_case(ctx: Context, ty: Ty, t: Term) -> str:
    """``v0 : T0, v1 : T1 |- t : ty`` in surface syntax."""
    names = context_names(len(ctx), ctx, ty, t)
    hyps = ", ".join(f"{names[i]} : {print_ty(a, names[:i])}" for i, a in enumerate(ctx.entries))
    judgement = f"|- {print_tm(t, names)} : {print_ty(ty, names)}"
    return f"{hyps} {judgement}" if hyps else judgement


def print_nf(n, names: tuple[str, ...] = ()) -> str:
    """Print a type or a term as surface text. The benchmark still imports
    this name; the kernel calls ``print_ty`` and ``print_tm``."""
    return print_ty(n, names) if isinstance(n, Ty) else print_tm(n, names)
