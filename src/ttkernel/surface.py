"""Surface syntax: tokenizer, parser, elaborator and pretty-printer.

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
    Node,
    Pi,
    Succ,
    Term,
    TmConst,
    Ty,
    TyConst,
    Var,
    Zero,
    apps,
    node,
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
# Surface trees (named variables, with source locations)


@node
class SVar(Node):
    name: str
    loc: tuple[int, int]


@node
class SNum(Node):
    value: int
    loc: tuple[int, int]


@node
class SSucc(Node):
    k: int  # a run of k >= 1 "succ" tokens
    pred: object
    loc: tuple[int, int]


@node
class SLam(Node):
    param: str
    body: object
    loc: tuple[int, int]


@node
class SApp(Node):
    fn: object
    arg: object
    loc: tuple[int, int]


@node
class SInd(Node):
    scrut: object
    motive_var: str
    motive: object
    zcase: object
    pred_var: str
    rec_var: str
    scase: object
    loc: tuple[int, int]


@node
class STyNat(Node):
    loc: tuple[int, int]


@node
class STyName(Node):
    name: str
    args: tuple
    loc: tuple[int, int]


@node
class STyPi(Node):
    param: str | None  # None for the non-dependent arrow sugar
    dom: object
    cod: object
    loc: tuple[int, int]


@node
class SPostulateTy(Node):
    name: str
    params: tuple  # of (name, surface type)
    loc: tuple[int, int]


@node
class SPostulateTm(Node):
    name: str
    ty: object
    loc: tuple[int, int]


@node
class SDefine(Node):
    name: str
    ty: object
    body: object
    loc: tuple[int, int]


_ATOM_START = {"ident", "num", "zero", "succ", "("}


class _Parser:
    """Recursive descent over ``tokenize``'s lists; ``pos`` indexes the next token."""

    def __init__(self, source: str):
        self.kinds, self.texts, self.lines, self.cols = tokenize(source)
        self.pos = 0

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
        i = self.pos
        kind, loc = self.kinds[i], (self.lines[i], self.cols[i])
        if kind == "postulate":
            self.pos = i + 1
            name = self.expect("ident")
            if self.kinds[self.pos] == ":":
                self.pos += 1
                return SPostulateTm(name, self.ty(), loc)
            params = []
            while self.kinds[self.pos] == "(":
                self.pos += 1
                pname = self.expect("ident")
                self.expect(":")
                params.append((pname, self.ty()))
                self.expect(")")
            return SPostulateTy(name, tuple(params), loc)
        if kind == "def":
            self.pos = i + 1
            name = self.expect("ident")
            self.expect(":")
            ty = self.ty()
            self.expect(":=")
            return SDefine(name, ty, self.tm(), loc)
        self.fail("'postulate' or 'def'")

    # types

    def ty(self):
        kinds, i = self.kinds, self.pos
        loc = (self.lines[i], self.cols[i])
        if kinds[i] == "(" and kinds[i + 1] == "ident" and kinds[i + 2] == ":":
            pname = self.texts[i + 1]
            self.pos = i + 3
            dom = self.ty()
            self.expect(")")
            self.expect("->")
            return STyPi(pname, dom, self.ty(), loc)
        left = self.ty1()
        if kinds[self.pos] != "->":
            return left
        self.pos += 1
        return STyPi(None, left, self.ty(), loc)

    def ty1(self):
        i = self.pos
        kind, loc = self.kinds[i], (self.lines[i], self.cols[i])
        self.pos = i + 1
        if kind == "Nat":
            return STyNat(loc)
        if kind == "ident":
            args = []
            while self.starts_atom():
                args.append(self.atom())
            return STyName(self.texts[i], tuple(args), loc)
        if kind == "(":
            ty = self.ty()
            self.expect(")")
            return ty
        self.pos = i
        self.fail("a type")

    # terms

    def tm(self):
        i = self.pos
        kind, loc = self.kinds[i], (self.lines[i], self.cols[i])
        if kind == "\\" or kind == "fun":
            self.pos = i + 1
            name = self.expect("ident")
            self.expect("." if kind == "\\" else "=>")
            return SLam(name, self.tm(), loc)
        if kind == "ind":
            self.pos = i + 1
            self.expect("(")
            scrut = self.tm()
            self.expect(";")
            mvar = self.expect("ident")
            self.expect(".")
            motive = self.ty()
            self.expect(";")
            zcase = self.tm()
            self.expect(";")
            pvar = self.expect("ident")
            rvar = self.expect("ident")
            self.expect(".")
            scase = self.tm()
            self.expect(")")
            return SInd(scrut, mvar, motive, zcase, pvar, rvar, scase, loc)
        t = self.atom()
        while self.starts_atom():
            t = SApp(t, self.atom(), t.loc)
        return t

    def atom(self):
        kinds, i = self.kinds, self.pos
        kind, loc = kinds[i], (self.lines[i], self.cols[i])
        self.pos = i + 1
        if kind == "ident":
            return SVar(self.texts[i], loc)
        if kind == "num":
            try:
                return SNum(int(self.texts[i]), loc)
            except ValueError:  # more digits than int() converts
                raise ResourceExhausted(f"numeral of {len(self.texts[i])} digits is too long", *loc) from None
        if kind == "zero":
            return SNum(0, loc)
        if kind == "succ":
            while kinds[self.pos] == "succ":
                self.pos += 1
            return SSucc(self.pos - i, self.atom(), loc)
        if kind == "(":
            tm = self.tm()
            self.expect(")")
            return tm
        self.pos = i
        self.fail("a term")


def _parse_whole(source: str, rule):
    """Run ``rule`` on the tokens of ``source``, which it must consume."""
    p = _Parser(source)
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


# ---------------------------------------------------------------------------
# Elaboration: names to de Bruijn, term constants applied, definitions named


def elaborate(decls, sig: Signature = Signature()) -> Signature:
    """Resolve and check a parsed file on top of ``sig``."""
    for d in decls:
        try:
            sig = declare(sig, _elab_decl(sig, d))
        except CheckError as e:
            if e.line is None:
                e.line, e.col = d.loc
            raise
    return sig


def _elab_decl(sig: Signature, d) -> Declaration:
    match d:
        case SPostulateTy(name, params, _):
            names: tuple[str, ...] = ()
            tys = []
            for pname, sty in params:
                tys.append(elab_ty(sig, names, sty))
                names += (pname,)
            return PostulateTy(name, tuple(tys))
        case SPostulateTm(name, sty, _):
            return PostulateTm(name, *split_pi(elab_ty(sig, (), sty)))
        case SDefine(name, sty, sbody, _):
            return Define(name, elab_ty(sig, (), sty), elab_tm(sig, (), sbody))
    raise AssertionError(f"not a declaration: {d!r}")


def elab_ty(sig: Signature, names: tuple[str, ...], sty) -> Ty:
    match sty:
        case STyNat(_):
            return Nat()
        case STyPi(param, dom, cod, _):
            return Pi(elab_ty(sig, names, dom), elab_ty(sig, names + (param or "_",), cod))
        case STyName(name, sargs, loc):
            decl = sig.find(PostulateTy, name)
            if decl is None:
                raise UnknownName(f"'{name}' is not a type constant", *loc)
            if len(sargs) != len(decl.params):
                raise ArityMismatch(
                    f"'{name}' expects {len(decl.params)} argument(s), got {len(sargs)}", *loc
                )
            return TyConst(name, tuple(elab_tm(sig, names, a) for a in sargs))
    raise AssertionError(f"not a surface type: {sty!r}")


def elab_tm(sig: Signature, names: tuple[str, ...], stm) -> Term:
    cls = stm.__class__  # spines and numerals, the frequent ones, by identity
    if cls is SApp or cls is SVar:
        head, sargs = _spine_of(stm)
        return _elab_head(sig, names, head, [elab_tm(sig, names, a) for a in sargs])
    if cls is SNum:
        return numeral(stm.value)
    match stm:
        case SSucc(k, pred, _):
            return succ(k, elab_tm(sig, names, pred))
        case SLam(param, body, _):
            return Lam(elab_tm(sig, names + (param,), body))
        case SInd(scrut, mvar, motive, zcase, pvar, rvar, scase, _):
            return NatInd(
                elab_tm(sig, names, scrut),
                elab_ty(sig, names + (mvar,), motive),
                elab_tm(sig, names, zcase),
                elab_tm(sig, names + (pvar, rvar), scase),
            )
    raise AssertionError(f"not a surface term: {stm!r}")


def _spine_of(stm):
    sargs = []
    while isinstance(stm, SApp):
        sargs.append(stm.arg)
        stm = stm.fn
    return stm, list(reversed(sargs))


def _elab_head(sig, names, head, args) -> Term:
    if not isinstance(head, SVar):
        return apps(elab_tm(sig, names, head), args)
    name, loc = head.name, head.loc
    for i in range(len(names)):
        if names[len(names) - 1 - i] == name:
            return apps(Var(i), args)
    match sig.find(Declaration, name):
        case PostulateTm(_, params, _) if len(args) >= len(params):
            k = len(params)
            return apps(TmConst(name, tuple(args[:k])), args[k:])
        case PostulateTm() | Define():  # a constant as a function
            return apps(Const(name), args)
        case PostulateTy(_, _):
            raise UnknownName(f"'{name}' is a type constant, not a term", *loc)
    raise UnknownName(f"unknown identifier '{name}'", *loc)


# ---------------------------------------------------------------------------
# Pretty-printing: emits re-parseable surface text


def _constant_names(*trees) -> set[str]:
    """The names the constants in ``trees`` use."""
    constants = (TmConst, TyConst, Const)
    return {x.name for t in trees for x in walk(t) if x.__class__ in constants}


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
        match t:
            case Var(i):
                return names[len(names) - 1 - i] if 0 <= i < len(names) else f"?v{i}"
            case Zero():
                return "zero"
            case Succ(k, base):
                if isinstance(base, Zero):
                    try:
                        return str(k)
                    except ValueError:  # more digits than str() converts
                        raise ResourceExhausted("numeral is too long to print") from None
                return _wrap("succ " * k + self.tm(base, names, 2), prec > 1)
            case Lam(body):
                x = self.fresh(names)
                return _wrap(f"\\{x}. {self.tm(body, names + (x,), 0)}", prec > 0)
            case App(f, a):
                return _wrap(f"{self.tm(f, names, 1)} {self.tm(a, names, 2)}", prec > 1)
            case NatInd(scrut, motive, zcase, scase):
                x = self.fresh(names)
                p = self.fresh(names)
                r = self.fresh(names + (p,))
                body = (
                    f"ind({self.tm(scrut, names, 0)}; "
                    f"{x}. {self.ty(motive, names + (x,), 0)}; "
                    f"{self.tm(zcase, names, 0)}; "
                    f"{p} {r}. {self.tm(scase, names + (p, r), 0)})"
                )
                return _wrap(body, prec > 0)
            case TmConst(c, args):
                if not args:
                    return c
                parts = " ".join(self.tm(a, names, 2) for a in args)
                return _wrap(f"{c} {parts}", prec > 1)
            case Const(c):
                return c
        raise AssertionError(f"not a term: {t!r}")

    def ty(self, ty: Ty, names: tuple[str, ...], prec: int) -> str:
        match ty:
            case Nat():
                return "Nat"
            case TyConst(c, args):
                if not args:
                    return c
                parts = " ".join(self.tm(a, names, 2) for a in args)
                return _wrap(f"{c} {parts}", prec > 1)
            case Pi(dom, cod):
                if uses_index(cod, 0):
                    x = self.fresh(names)
                    s = f"({x} : {self.ty(dom, names, 0)}) -> {self.ty(cod, names + (x,), 0)}"
                else:
                    s = f"{self.ty(dom, names, 1)} -> {self.ty(cod, names + ('_',), 0)}"
                return _wrap(s, prec > 0)
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
