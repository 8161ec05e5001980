"""Normal forms: the judgments that recognize normal types, normal terms
and neutral terms among plain syntax.

A normal term is beta/iota-free and eta-long: at a function type the
only normal inhabitants are lambdas, and a blocked elimination (a spine
headed by a variable or by a postulated term constant, a ``Const`` head
with no body) is a normal term only at Nat or at a type constant; a
definition's head is never normal. So a neutral is a normal term, and
its type follows from its head and its arguments. NbE's readback builds
exactly these terms, as ``Term`` and ``Ty``; there is no second tree
family for them.
"""

from __future__ import annotations

from .rewrite import DEFAULT_FUEL, _eta_ty, _Fuel, _reduce_ty, unfold
from .signature import PostulateTy, Signature
from .syntax import (
    App,
    Const,
    Context,
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
    inst_params,
    motive_succ_case,
    subst1,
)


def erase(t):
    """``t`` itself: readback already builds syntax. The benchmark still
    imports this name."""
    return t


# ---------------------------------------------------------------------------
# Type-directed recognition of normal forms, decided over syntax.


def is_normal(sig: Signature, ctx: Context, ty: Ty, t: Term) -> bool:
    """Is ``t`` a normal term at ``ty``?

    Types never compute: the types in ``ctx`` and ``ty``, and those computed
    on the way by substitution, are read as they stand. A neutral is normal
    at ``ty`` if its spine's type is ``ty``; only where the two differ are
    both brought to the oracle's normal form and compared. So for ``q : (u :
    Nat -> Nat) -> C (u zero)``, ``q (\\x. v x)`` of type ``C ((\\x. v x)
    zero)`` is normal at ``C (v zero)``, and for ``e : (w : Nat -> Nat) -> E
    w``, ``e (\\x. v x)`` is normal at ``E v``. As for ``rw_normalize``,
    ``ctx`` and ``ty`` must be well formed: the oracle's eta pass asserts on
    an ill-formed spine.
    """
    match ty:
        case Pi(dom, cod):
            # eta-long: normal inhabitants of Pi are lambdas
            return isinstance(t, Lam) and is_normal(sig, ctx.extend(dom), cod, t.body)
        case Nat():
            match t:
                case Zero():
                    return True
                case Succ(_, base):
                    return is_normal(sig, ctx, ty, base)
    have = _spine_type(sig, ctx, t)
    if have is None:
        return False
    return have == ty or isinstance(ty, TyConst) and _reduced(sig, ctx, have) == _reduced(sig, ctx, ty)


def _is_normal_ty(sig: Signature, ctx: Context, ty: Ty) -> bool:
    """Is ``ty`` a well-formed normal type?"""
    match ty:
        case Pi(dom, cod):
            return _is_normal_ty(sig, ctx, dom) and _is_normal_ty(sig, ctx.extend(dom), cod)
        case Nat():
            return True
        case TyConst(name, args):
            decl = sig.find(PostulateTy, name)
            return decl is not None and _normal_args(sig, ctx, decl.params, args)
    raise AssertionError(f"not a type: {ty!r}")


def _normal_args(sig, ctx, params, args) -> bool:
    """Are a constant's arguments normal, checked against its telescope?"""
    if len(params) != len(args):
        return False
    for i, a in enumerate(args):  # a loop, not all(...): no generator frame per level
        if not is_normal(sig, ctx, inst_params(params[i], args[:i]), a):
            return False
    return True


def _spine_type(sig: Signature, ctx: Context, t: Term) -> Ty | None:
    """The type the neutral spine ``t`` synthesizes from its head, if all its
    parts are normal; None otherwise."""
    match t:
        case Var(i):
            if 0 <= i < len(ctx):
                return ctx.var_type(i)
        case App(f, a):
            fty = _spine_type(sig, ctx, f)
            if isinstance(fty, Pi) and is_normal(sig, ctx, fty.dom, a):
                return subst1(fty.cod, a)
        case NatInd(scrut, motive, z, s):
            ctx_n = ctx.extend(Nat())
            # without a normal motive, the cases have no types to check at
            if (
                isinstance(_spine_type(sig, ctx, scrut), Nat)
                and _is_normal_ty(sig, ctx_n, motive)
                and is_normal(sig, ctx, subst1(motive, Zero()), z)
                and is_normal(sig, ctx_n.extend(motive), motive_succ_case(motive), s)
            ):
                return subst1(motive, scrut)
        case Const(name):
            fn = sig.function(name)
            if fn is not None and fn[1] is None:  # a postulate, which has no body
                return fn[0]
    return None


def _reduced(sig: Signature, ctx: Context, ty: Ty) -> Ty:
    """``ty`` in the oracle's normal form: its definitions unfolded, its term
    arguments beta/iota-reduced, on a tank of its own (these are not oracle
    steps), then eta-expanded."""
    return _eta_ty(sig, ctx.entries, _reduce_ty(unfold(sig, ty), _Fuel(DEFAULT_FUEL)))
