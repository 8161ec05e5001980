"""Rewriting oracle: an independent judge of definitional equality.

Normalization here is leftmost-outermost beta/iota rewriting to a
reduced form, followed by a type-directed eta-expansion pass, so the
result is comparable with the eta-long output of the evaluator. The
oracle never touches the semantic domain. The eta pass reads the types
of variables, constants and motives as declared, for their Pi nesting
alone, so fuel counts only the beta/iota contractions of the term.

``_reduce`` reaches the normal form in one pass, in normal order
(Grégoire & Leroy, "A compiled implementation of strong reduction", ICFP
2002): it contracts head redexes in a loop until the head is a lambda, a
numeral constructor or stuck, then reduces the remaining parts left to
right. It contracts exactly the redexes that iterating the single-step
rewriter ``step`` of ``tests/step_reference.py`` would, in the same order,
so results and fuel counts are identical; the tests check this on
generated and enumerated terms.

Constant heads are unfolded before that, in a pass of its own that spends
no fuel and passes a term naming no constant after one scan (``unfold``): a
definition applied to arguments becomes its unfolded body with the
arguments substituted in, as elaboration once inlined definitions, so the
oracle reduces the same terms, with the same step counts, as it did then. A
term constant given fewer arguments than it takes unfolds to its
eta-expansion alike. The unfolded bodies are signature entries; the
reducer, which sees no constant, takes no signature.
"""

from __future__ import annotations

from itertools import repeat

from .errors import FuelExhausted
from .signature import PostulateTm, PostulateTy, Signature
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
    alpha_eq,
    apps,
    const_names,
    shift,
    subst1,
    subst_many,
    succ,
)

DEFAULT_FUEL = 100_000


class _Fuel:
    def __init__(self, amount: int):
        self.remaining = amount

    def spend(self):
        self.remaining -= 1
        if self.remaining < 0:
            raise FuelExhausted("rewriting did not terminate within the fuel limit")


def unfold(sig: Signature, t):
    """``t``, a term or a type, with every constant head unfolded: ``d a_1
    ... a_n`` becomes the unfolded body of ``d`` (a term constant's
    eta-expansion), whose leading lambdas take the unfolded arguments, one
    ``subst_many`` per run of lambdas; arguments left over stay applied.
    A tree that names no constant comes back as itself after one scan, as
    does every subtree in which nothing unfolds. The unfolded bodies are
    the signature's entries."""
    return _unfold(sig, t) if const_names(t) else t


def _unfold(sig, t):
    """``unfold`` past the scan, on a node or a tuple: a spine is read, any
    other node rebuilt from its fields, one frame per level."""
    cls = t.__class__
    if cls is App or cls is Const:
        head, args, same = t, [], True
        while head.__class__ is App:
            args.append(a := _unfold(sig, head.arg))
            same = same and a is head.arg
            head = head.fn
        args.reverse()
        if head.__class__ is Const:  # its entry is its body, unfolded
            entry = sig.entry("rewrite", head.name, lambda sig, ty, body: unfold(sig, body))
            return _contract(entry, args)
        h = _unfold(sig, head)
        return t if same and h is head else apps(h, args)
    fields = t if cls is tuple else map(getattr, repeat(t), cls.__match_args__)
    parts, same = [], True
    for x in fields:  # a name, an index or a successor count stays as it is
        parts.append(y := _unfold(sig, x) if x.__class__ is tuple or isinstance(x, Node) else x)
        same = same and y is x
    if same:
        return t
    return tuple(parts) if cls is tuple else succ(*parts) if cls is Succ else cls(*parts)


def _contract(body: Term, args: list) -> Term:
    """``body`` applied to ``args``, each run of its leading lambdas taking
    as many arguments as it can in one ``subst_many``."""
    t = body
    while args and t.__class__ is Lam:
        k = 0
        while k < len(args) and t.__class__ is Lam:
            t, k = t.body, k + 1
        t, args = subst_many(t, tuple(args[k - 1 :: -1])), args[k:]
    return apps(t, args)


def _reduce(t: Term, fuel: _Fuel) -> Term:
    """Normal form of ``t``, which names no definition: the redexes iterated
    ``step`` contracts, in its order. Returns ``t`` itself when nothing
    inside it reduces."""
    cls = t.__class__
    if cls is Var or cls is Zero:
        return t
    if cls is Lam:
        b = _reduce(t.body, fuel)
        return t if b is t.body else Lam(b)
    if cls is TmConst:
        args = _reduce_args(t.args, fuel)
        return t if args is t.args else TmConst(t.name, args)
    # a base can head-reduce to a new successor (``succ (ind(...))`` does once
    # per iota step), so successor heads are summed in a loop, not recursed into
    k, h = 0, t
    while (h := _head(h, fuel)).__class__ is Succ:
        k, h = k + h.k, h.base
    nf = _reduce_hnf(h, fuel)
    return t if cls is Succ and nf is t.base else succ(k, nf)


def _head(t: Term, fuel: _Fuel) -> Term:
    """Contract head redexes until ``t`` is a lambda, zero, a successor or
    an application or eliminator that is stuck; ``t`` itself when none
    fires. The function position and the scrutinee reduce first."""
    while True:
        cls = t.__class__
        if cls is App:
            f = _head(t.fn, fuel)
            if f.__class__ is not Lam:
                return t if f is t.fn else App(f, t.arg)
            fuel.spend()
            t = subst1(f.body, t.arg)
        elif cls is NatInd:
            s = _head(t.scrut, fuel)
            if s.__class__ is Zero:
                fuel.spend()
                t = t.zcase
            elif s.__class__ is Succ:
                fuel.spend()
                n = succ(s.k - 1, s.base)
                t = subst_many(t.scase, (NatInd(n, t.motive, t.zcase, t.scase), n))
            else:
                return t if s is t.scrut else NatInd(s, t.motive, t.zcase, t.scase)
        else:
            return t


def _reduce_hnf(t: Term, fuel: _Fuel) -> Term:
    """``_reduce`` for a term ``_head`` returned: a stuck application or
    eliminator never becomes a redex, so its parts reduce in step's order."""
    cls = t.__class__
    if cls is App:
        f = _reduce_hnf(t.fn, fuel)
        a = _reduce(t.arg, fuel)
        return t if f is t.fn and a is t.arg else App(f, a)
    if cls is NatInd:
        s = _reduce_hnf(t.scrut, fuel)
        m = _reduce_ty(t.motive, fuel)
        z = _reduce(t.zcase, fuel)
        c = _reduce(t.scase, fuel)
        if s is t.scrut and m is t.motive and z is t.zcase and c is t.scase:
            return t
        return NatInd(s, m, z, c)
    assert cls is not Const, "unfold definitions before reducing"
    return _reduce(t, fuel)


def _reduce_ty(ty: Ty, fuel: _Fuel) -> Ty:
    """Normal form of a type's term arguments, in ``step_ty``'s order."""
    match ty:
        case Nat():
            return ty
        case Pi(dom, cod):
            d2 = _reduce_ty(dom, fuel)
            c2 = _reduce_ty(cod, fuel)
            return ty if d2 is dom and c2 is cod else Pi(d2, c2)
        case TyConst(name, args):
            args2 = _reduce_args(args, fuel)
            return ty if args2 is args else TyConst(name, args2)
    raise AssertionError(f"not a type: {ty!r}")


def _reduce_args(args, fuel):
    out = args
    for i, a in enumerate(args):
        a2 = _reduce(a, fuel)
        if a2 is not a:
            out = out[:i] + (a2,) + out[i + 1 :]
    return out


def rw_normalize(sig: Signature, ctx: Context, ty: Ty, t: Term, fuel: int = DEFAULT_FUEL) -> Term:
    """Normalize by rewriting: unfold definitions, beta/iota to a reduced
    form, then eta-expand.

    Raises FuelExhausted when more than ``fuel`` beta/iota steps are needed.
    Well-typed input terminates, but large arithmetic can need more steps
    than the default budget of 100,000.
    """
    return _eta_tm(sig, ctx.entries, ty, _reduce(unfold(sig, t), _Fuel(fuel)))


# Types never compute: no eliminator returns a type, so substitution and
# reduction keep a type's Pi nesting, the one thing the eta pass reads of it.
# So it reads each type as declared or written; ``ctx`` is the context's entries.


def _eta_tm(sig, ctx: tuple[Ty, ...], ty: Ty, t: Term) -> Term:
    # t is beta/iota-reduced; at Nat or a type constant it is a numeral or a spine
    if isinstance(ty, Pi):
        if isinstance(t, Lam):
            body = _eta_tm(sig, ctx + (ty.dom,), ty.cod, t.body)
            return t if body is t.body else Lam(body)
        return Lam(_eta_tm(sig, ctx + (ty.dom,), ty.cod, App(shift(t, 1), Var(0))))
    match t:
        case Zero():
            return t
        case Succ(k, base):
            b = _eta_tm(sig, ctx, ty, base)
            return t if b is base else Succ(k, b)
    return _eta_ne(sig, ctx, t)[0]


def _eta_ne(sig, ctx: tuple[Ty, ...], t: Term) -> tuple[Term, Ty]:
    """Eta-expand the arguments of a neutral spine; returns its type too.
    A spine whose arguments are already eta-long comes back as it is."""
    match t:
        case Var(i):
            return t, ctx[-1 - i]
        case App(f, a):
            f2, f_ty = _eta_ne(sig, ctx, f)
            assert isinstance(f_ty, Pi), f"spine head is not a function: {f_ty!r}"
            a2 = _eta_tm(sig, ctx, f_ty.dom, a)
            return t if f2 is f and a2 is a else App(f2, a2), f_ty.cod
        case NatInd(scrut, motive, zcase, scase):
            s2 = _eta_ne(sig, ctx, scrut)[0]
            m2 = _eta_ty(sig, ctx + (Nat(),), motive)
            z2 = _eta_tm(sig, ctx, motive, zcase)
            c2 = _eta_tm(sig, ctx + (Nat(), motive), motive, scase)
            if s2 is scrut and m2 is motive and z2 is zcase and c2 is scase:
                return t, motive
            return NatInd(s2, m2, z2, c2), motive
        case TmConst(name, args):
            decl = sig.find(PostulateTm, name)
            assert decl is not None, f"'{name}' is not a term constant"
            args2 = _eta_args(sig, ctx, decl.params, args)
            return t if args2 is args else TmConst(name, args2), decl.result
    raise AssertionError(f"not a neutral spine: {t!r}")


def _eta_ty(sig, ctx: tuple[Ty, ...], ty: Ty) -> Ty:
    match ty:
        case Nat():
            return ty
        case Pi(dom, cod):
            d2 = _eta_ty(sig, ctx, dom)
            c2 = _eta_ty(sig, ctx + (dom,), cod)
            return ty if d2 is dom and c2 is cod else Pi(d2, c2)
        case TyConst(name, args):
            decl = sig.find(PostulateTy, name)
            assert decl is not None, f"'{name}' is not a type constant"
            args2 = _eta_args(sig, ctx, decl.params, args)
            return ty if args2 is args else TyConst(name, args2)
    raise AssertionError(f"not a type: {ty!r}")


def _eta_args(sig, ctx, params, args):
    out = args
    for i, (p, a) in enumerate(zip(params, args, strict=True)):
        a2 = _eta_tm(sig, ctx, p, a)
        if a2 is not a:
            out = out[:i] + (a2,) + out[i + 1 :]
    return out


def oracle_equal(
    sig: Signature, ctx: Context, ty: Ty, t: Term, u: Term, fuel: int = DEFAULT_FUEL
) -> bool:
    """Definitional equality by rewriting both sides to normal form."""
    return alpha_eq(rw_normalize(sig, ctx, ty, t, fuel), rw_normalize(sig, ctx, ty, u, fuel))
