"""The single-step rewriter: contract the leftmost-outermost beta/iota
redex, one at a time. Iterating ``step`` to a fixed point is the
specification that ``rewrite._reduce`` is held to: the same normal form,
by the same contractions, in the same order."""

from __future__ import annotations

from ttkernel.signature import Signature
from ttkernel.syntax import (
    App,
    Lam,
    Nat,
    NatInd,
    Pi,
    Succ,
    Term,
    TmConst,
    Ty,
    TyConst,
    Var,
    Zero,
    subst1,
    subst_many,
    succ,
)


def step(sig: Signature, t: Term) -> Term | None:
    """Contract the leftmost-outermost redex, or return None if reduced."""
    match t:
        case App(Lam(body), arg):
            return subst1(body, arg)
        case NatInd(Zero(), _, zcase, _):
            return zcase
        case NatInd(Succ(k, base), motive, zcase, scase):
            n = succ(k - 1, base)
            return subst_many(scase, (NatInd(n, motive, zcase, scase), n))
    match t:
        case Var(_) | Zero():
            return None
        case Lam(body):
            b = step(sig, body)
            return None if b is None else Lam(b)
        case Succ(k, base):
            b2 = step(sig, base)
            return None if b2 is None else succ(k, b2)
        case App(f, a):
            f2 = step(sig, f)
            if f2 is not None:
                return App(f2, a)
            a2 = step(sig, a)
            return None if a2 is None else App(f, a2)
        case NatInd(scrut, motive, zcase, scase):
            s2 = step(sig, scrut)
            if s2 is not None:
                return NatInd(s2, motive, zcase, scase)
            m2 = step_ty(sig, motive)
            if m2 is not None:
                return NatInd(scrut, m2, zcase, scase)
            z2 = step(sig, zcase)
            if z2 is not None:
                return NatInd(scrut, motive, z2, scase)
            sc2 = step(sig, scase)
            return None if sc2 is None else NatInd(scrut, motive, zcase, sc2)
        case TmConst(name, args):
            args2 = _step_args(sig, args)
            return None if args2 is None else TmConst(name, args2)
    raise AssertionError(f"not a term: {t!r}")


def step_ty(sig: Signature, ty: Ty) -> Ty | None:
    """Contract the leftmost redex inside a type's term arguments."""
    match ty:
        case Nat():
            return None
        case Pi(dom, cod):
            d2 = step_ty(sig, dom)
            if d2 is not None:
                return Pi(d2, cod)
            c2 = step_ty(sig, cod)
            return None if c2 is None else Pi(dom, c2)
        case TyConst(name, args):
            args2 = _step_args(sig, args)
            return None if args2 is None else TyConst(name, args2)
    raise AssertionError(f"not a type: {ty!r}")


def _step_args(sig, args):
    for i, a in enumerate(args):
        a2 = step(sig, a)
        if a2 is not None:
            return args[:i] + (a2,) + args[i + 1 :]
    return None
