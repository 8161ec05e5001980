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

Numerals desugar to iterated successors; "--" comments to end of line.
"""

from __future__ import annotations

from .errors import ArityMismatch, CheckError, ParseError, UnknownName
from .signature import (
    Declaration,
    Define,
    PostulateTm,
    PostulateTy,
    Signature,
    declare,
)
from .syntax import (
    App,
    Context,
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
    node,
    peel,
    rebuild,
    shift,
    split_pi,
    subst1,
    uses_index,
)
from .normal import NfTy, erase

KEYWORDS = {"postulate", "def", "Nat", "zero", "succ", "ind", "fun"}
_PUNCT = (":=", "->", "=>", "(", ")", ":", ";", ".", "\\")


@node
class Token(Node):
    kind: str
    text: str
    line: int
    col: int


def tokenize(source: str) -> list[Token]:
    toks = []
    line, col, pos = 1, 1, 0
    n = len(source)
    while pos < n:
        ch = source[pos]
        if ch == "\n":
            pos += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            pos += 1
            col += 1
            continue
        if source.startswith("--", pos):
            while pos < n and source[pos] != "\n":
                pos += 1
            continue
        for p in _PUNCT:
            if source.startswith(p, pos):
                toks.append(Token(p, p, line, col))
                pos += len(p)
                col += len(p)
                break
        else:
            if ch.isdigit():
                start = pos
                while pos < n and source[pos].isdigit():
                    pos += 1
                text = source[start:pos]
                toks.append(Token("num", text, line, col))
                col += len(text)
            elif ch.isalpha() or ch == "_":
                start = pos
                while pos < n and (source[pos].isalnum() or source[pos] in "_'"):
                    pos += 1
                text = source[start:pos]
                kind = text if text in KEYWORDS else "ident"
                toks.append(Token(kind, text, line, col))
                col += len(text)
            else:
                raise ParseError(f"unexpected character {ch!r}", line, col)
    toks.append(Token("eof", "", line, col))
    return toks


# ---------------------------------------------------------------------------
# Surface trees (named variables, with source locations)


@node
class SVar(Node):
    name: str
    loc: tuple[int, int]


@node
class SZero(Node):
    loc: tuple[int, int]


@node
class SSucc(Node):
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
    def __init__(self, tokens: list[Token]):
        self.toks = tokens
        self.pos = 0

    def peek(self, ahead: int = 0) -> Token:
        i = min(self.pos + ahead, len(self.toks) - 1)
        return self.toks[i]

    def advance(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def expect(self, kind: str) -> Token:
        t = self.peek()
        if t.kind != kind:
            raise ParseError(f"expected '{kind}', found '{t.text or 'end of input'}'", t.line, t.col)
        return self.advance()

    def loc(self) -> tuple[int, int]:
        t = self.peek()
        return (t.line, t.col)

    # declarations

    def file(self) -> list:
        decls = []
        while self.peek().kind != "eof":
            decls.append(self.decl())
        return decls

    def decl(self):
        t = self.peek()
        if t.kind == "postulate":
            loc = self.loc()
            self.advance()
            name = self.expect("ident").text
            if self.peek().kind == ":":
                self.advance()
                return SPostulateTm(name, self.ty(), loc)
            params = []
            while self.peek().kind == "(":
                self.advance()
                pname = self.expect("ident").text
                self.expect(":")
                params.append((pname, self.ty()))
                self.expect(")")
            return SPostulateTy(name, tuple(params), loc)
        if t.kind == "def":
            loc = self.loc()
            self.advance()
            name = self.expect("ident").text
            self.expect(":")
            ty = self.ty()
            self.expect(":=")
            return SDefine(name, ty, self.tm(), loc)
        raise ParseError(f"expected 'postulate' or 'def', found '{t.text or 'end of input'}'", t.line, t.col)

    # types

    def ty(self):
        loc = self.loc()
        if self.peek().kind == "(" and self.peek(1).kind == "ident" and self.peek(2).kind == ":":
            self.advance()
            pname = self.expect("ident").text
            self.expect(":")
            dom = self.ty()
            self.expect(")")
            self.expect("->")
            return STyPi(pname, dom, self.ty(), loc)
        left = self.ty1()
        if self.peek().kind == "->":
            self.advance()
            return STyPi(None, left, self.ty(), loc)
        return left

    def ty1(self):
        t = self.peek()
        if t.kind == "Nat":
            self.advance()
            return STyNat((t.line, t.col))
        if t.kind == "ident":
            self.advance()
            args = []
            while self._starts_atom():
                args.append(self.atom())
            return STyName(t.text, tuple(args), (t.line, t.col))
        if t.kind == "(":
            self.advance()
            ty = self.ty()
            self.expect(")")
            return ty
        raise ParseError(f"expected a type, found '{t.text or 'end of input'}'", t.line, t.col)

    # terms

    def tm(self):
        t = self.peek()
        if t.kind in ("\\", "fun"):
            loc = self.loc()
            self.advance()
            name = self.expect("ident").text
            self.expect("." if t.kind == "\\" else "=>")
            return SLam(name, self.tm(), loc)
        if t.kind == "ind":
            loc = self.loc()
            self.advance()
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
        return self.tm_app()

    def tm_app(self):
        t = self.atom()
        while self._starts_atom():
            arg = self.atom()
            t = SApp(t, arg, t.loc)
        return t

    def _starts_atom(self) -> bool:
        k = self.peek().kind
        if k not in _ATOM_START:
            return False
        if k == "(" and self.peek(1).kind == "ident" and self.peek(2).kind == ":":
            return False  # a dependent arrow domain, not a term atom
        return True

    def atom(self):
        t = self.peek()
        loc = (t.line, t.col)
        if t.kind == "zero":
            self.advance()
            return SZero(loc)
        if t.kind == "succ":
            self.advance()
            return SSucc(self.atom(), loc)
        if t.kind == "num":
            self.advance()
            out = SZero(loc)
            for _ in range(int(t.text)):
                out = SSucc(out, loc)
            return out
        if t.kind == "ident":
            self.advance()
            return SVar(t.text, loc)
        if t.kind == "(":
            self.advance()
            tm = self.tm()
            self.expect(")")
            return tm
        raise ParseError(f"expected a term, found '{t.text or 'end of input'}'", t.line, t.col)


def parse(source: str) -> list:
    """Parse a file of declarations."""
    return _Parser(tokenize(source)).file()


def parse_expression(source: str):
    p = _Parser(tokenize(source))
    t = p.tm()
    p.expect("eof")
    return t


def parse_type(source: str):
    p = _Parser(tokenize(source))
    ty = p.ty()
    p.expect("eof")
    return ty


# ---------------------------------------------------------------------------
# Elaboration: names to de Bruijn, definitions expanded, constants applied


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
            decl = sig.get(name)
            if not isinstance(decl, PostulateTy):
                raise UnknownName(f"'{name}' is not a type constant", *loc)
            if len(sargs) != len(decl.params):
                raise ArityMismatch(
                    f"'{name}' expects {len(decl.params)} argument(s), got {len(sargs)}", *loc
                )
            return TyConst(name, tuple(elab_tm(sig, names, a) for a in sargs))
    raise AssertionError(f"not a surface type: {sty!r}")


def elab_tm(sig: Signature, names: tuple[str, ...], stm) -> Term:
    match stm:
        case SZero(_):
            return Zero()
        case SSucc(_, _):
            n, base = peel(stm, SSucc)
            return rebuild(Succ, n, elab_tm(sig, names, base))
        case SLam(param, body, _):
            return Lam(elab_tm(sig, names + (param,), body))
        case SInd(scrut, mvar, motive, zcase, pvar, rvar, scase, _):
            return NatInd(
                elab_tm(sig, names, scrut),
                elab_ty(sig, names + (mvar,), motive),
                elab_tm(sig, names, zcase),
                elab_tm(sig, names + (pvar, rvar), scase),
            )
        case SVar(_, _) | SApp(_, _, _):
            head, sargs = _spine_of(stm)
            args = [elab_tm(sig, names, a) for a in sargs]
            return _elab_head(sig, names, head, args)
    raise AssertionError(f"not a surface term: {stm!r}")


def _spine_of(stm):
    sargs = []
    while isinstance(stm, SApp):
        sargs.append(stm.arg)
        stm = stm.fn
    return stm, list(reversed(sargs))


def _apps(t: Term, args) -> Term:
    for a in args:
        t = App(t, a)
    return t


def _elab_head(sig, names, head, args) -> Term:
    if not isinstance(head, SVar):
        return _apps(elab_tm(sig, names, head), args)
    name, loc = head.name, head.loc
    for i in range(len(names)):
        if names[len(names) - 1 - i] == name:
            return _apps(Var(i), args)
    decl = sig.get(name)
    match decl:
        case PostulateTm(_, params, _):
            k = len(params)
            if len(args) >= k:
                return _apps(TmConst(name, tuple(args[:k])), args[k:])
            # under-applied constant: eta-expand so the kernel only ever
            # sees fully applied constants
            missing = k - len(args)
            spine = tuple(shift(a, missing) for a in args) + tuple(
                Var(missing - 1 - i) for i in range(missing)
            )
            t: Term = TmConst(name, spine)
            for _ in range(missing):
                t = Lam(t)
            return t
        case Define(_, _, body):
            # bodies are closed and pre-expanded; contract the
            # administrative redexes so the result stays inferable
            t = body
            for a in args:
                t = subst1(t.body, a) if isinstance(t, Lam) else App(t, a)
            return t
        case PostulateTy(_, _):
            raise UnknownName(f"'{name}' is a type constant, not a term", *loc)
    raise UnknownName(f"unknown identifier '{name}'", *loc)


# ---------------------------------------------------------------------------
# Pretty-printing: emits re-parseable surface text


def _fresh(names: tuple[str, ...]) -> str:
    k = 0
    while f"x{k}" in names:
        k += 1
    return f"x{k}"


def print_tm(t: Term, names: tuple[str, ...] = (), prec: int = 0) -> str:
    match t:
        case Var(i):
            return names[len(names) - 1 - i] if 0 <= i < len(names) else f"?v{i}"
        case Zero():
            return "zero"
        case Succ(_):
            depth, inner = peel(t, Succ)
            if isinstance(inner, Zero):
                return str(depth)
            s = print_tm(inner, names, 2)
            for _ in range(depth - 1):
                s = f"(succ {s})"
            return _wrap(f"succ {s}", prec > 1)
        case Lam(body):
            x = _fresh(names)
            return _wrap(f"\\{x}. {print_tm(body, names + (x,), 0)}", prec > 0)
        case App(f, a):
            return _wrap(f"{print_tm(f, names, 1)} {print_tm(a, names, 2)}", prec > 1)
        case NatInd(scrut, motive, zcase, scase):
            x = _fresh(names)
            p = _fresh(names)
            r = _fresh(names + (p,))
            body = (
                f"ind({print_tm(scrut, names, 0)}; "
                f"{x}. {print_ty(motive, names + (x,), 0)}; "
                f"{print_tm(zcase, names, 0)}; "
                f"{p} {r}. {print_tm(scase, names + (p, r), 0)})"
            )
            return _wrap(body, prec > 0)
        case TmConst(c, args):
            if not args:
                return c
            parts = " ".join(print_tm(a, names, 2) for a in args)
            return _wrap(f"{c} {parts}", prec > 1)
    raise AssertionError(f"not a term: {t!r}")


def print_ty(ty: Ty, names: tuple[str, ...] = (), prec: int = 0) -> str:
    match ty:
        case Nat():
            return "Nat"
        case TyConst(c, args):
            if not args:
                return c
            parts = " ".join(print_tm(a, names, 2) for a in args)
            return _wrap(f"{c} {parts}", prec > 1)
        case Pi(dom, cod):
            if uses_index(cod, 0):
                x = _fresh(names)
                s = f"({x} : {print_ty(dom, names, 0)}) -> {print_ty(cod, names + (x,), 0)}"
            else:
                s = f"{print_ty(dom, names, 1)} -> {print_ty(cod, names + ('_',), 0)}"
            return _wrap(s, prec > 0)
    raise AssertionError(f"not a type: {ty!r}")


def _wrap(s: str, needed: bool) -> str:
    return f"({s})" if needed else s


def context_names(depth: int) -> tuple[str, ...]:
    """The names ``v0, v1, ...`` of a context's variables, outermost first."""
    return tuple(f"v{i}" for i in range(depth))


def print_case(ctx: Context, ty: Ty, t: Term) -> str:
    """``v0 : T0, v1 : T1 |- t : ty`` in surface syntax."""
    names = context_names(len(ctx))
    hyps = ", ".join(f"{names[i]} : {print_ty(a, names[:i])}" for i, a in enumerate(ctx.entries))
    judgement = f"|- {print_tm(t, names)} : {print_ty(ty, names)}"
    return f"{hyps} {judgement}" if hyps else judgement


def print_nf(n, names: tuple[str, ...] = ()) -> str:
    """Print a normal form (type or term) as surface text."""
    t = erase(n)
    if isinstance(n, NfTy):
        return print_ty(t, names)
    return print_tm(t, names)
