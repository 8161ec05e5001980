"""The inlining elaborator: each use of a definition is replaced by its body,
with the arguments substituted into the body's leading lambdas, and a
postulated term constant stays a ``Const`` head applied with ``App``. It
elaborates the surface trees of ``tests/parser_reference.py``.
Definitions were elaborated this way before they became constants. The
rewriting oracle's ``unfold`` of the elaborated term must give the term
this elaborator produces, on every input; ``elaborate`` here returns a
signature whose definition bodies and declared types are inlined too."""

from __future__ import annotations

from parser_reference import (
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
from ttkernel.check import declare
from ttkernel.errors import ArityMismatch, CheckError, UnknownName
from ttkernel.signature import Declaration, Define, PostulateTm, PostulateTy, Signature
from ttkernel.syntax import (
    App,
    Const,
    Lam,
    Nat,
    NatInd,
    Pi,
    Term,
    Ty,
    TyConst,
    Var,
    numeral,
    split_pi,
    subst_many,
    succ,
)


def elaborate(decls, sig: Signature = Signature()) -> Signature:
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
    match stm:
        case SNum(value, _):
            return numeral(value)
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
    match sig.find(Declaration, name):
        case PostulateTm():
            return _apps(Const(name), args)
        case Define(_, _, body):
            # bodies are closed and pre-expanded; contract the
            # administrative redexes so the result stays inferable: one
            # substitution per run of leading lambdas, as many as arguments
            t = body
            while args and t.__class__ is Lam:
                k = 0
                while k < len(args) and t.__class__ is Lam:
                    t, k = t.body, k + 1
                t, args = subst_many(t, tuple(args[k - 1 :: -1])), args[k:]
            return _apps(t, args)
        case PostulateTy(_, _):
            raise UnknownName(f"'{name}' is a type constant, not a term", *loc)
    raise UnknownName(f"unknown identifier '{name}'", *loc)
