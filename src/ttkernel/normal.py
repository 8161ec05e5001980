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
    while True:  # through a Pi telescope and a successor chain, in a loop
        cls = ty.__class__
        if cls is Pi:  # eta-long: normal inhabitants of Pi are lambdas
            if t.__class__ is not Lam:
                return False
            ctx, ty, t = ctx.extend(ty.dom), ty.cod, t.body
        elif cls is Nat and t.__class__ is Succ:
            t = t.base
        elif cls is Nat and t.__class__ is Zero:
            return True
        else:
            break
    have = _spine_type(sig, ctx, t)
    if have is None:
        return False
    return have == ty or cls is TyConst and _reduced(sig, ctx, have) == _reduced(sig, ctx, ty)


def _is_normal_ty(sig: Signature, ctx: Context, ty: Ty) -> bool:
    """Is ``ty`` a well-formed normal type?"""
    cls = ty.__class__
    if cls is Nat:
        return True
    if cls is Pi:
        return _is_normal_ty(sig, ctx, ty.dom) and _is_normal_ty(sig, ctx.extend(ty.dom), ty.cod)
    if cls is TyConst:
        decl = sig.find(PostulateTy, ty.name)
        return decl is not None and _normal_args(sig, ctx, decl.params, ty.args)
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
    cls = t.__class__
    if cls is App:
        fty = _spine_type(sig, ctx, t.fn)
        if fty.__class__ is Pi and is_normal(sig, ctx, fty.dom, t.arg):
            return subst1(fty.cod, t.arg)
    elif cls is Var:
        if 0 <= t.index < len(ctx):
            return ctx.var_type(t.index)
    elif cls is Const:
        fn = sig.function(t.name)
        if fn is not None and fn[1] is None:  # a postulate, which has no body
            return fn[0]
    elif cls is NatInd:
        motive = t.motive
        ctx_n = ctx.extend(Nat())
        # without a normal motive, the cases have no types to check at
        if (
            _spine_type(sig, ctx, t.scrut).__class__ is Nat
            and _is_normal_ty(sig, ctx_n, motive)
            and is_normal(sig, ctx, subst1(motive, Zero()), t.zcase)
            and is_normal(sig, ctx_n.extend(motive), motive_succ_case(motive), t.scase)
        ):
            return subst1(motive, t.scrut)
    return None


def _reduced(sig: Signature, ctx: Context, ty: Ty) -> Ty:
    """``ty`` in the oracle's normal form: its definitions unfolded, its term
    arguments beta/iota-reduced, on a tank of its own (these are not oracle
    steps), then eta-expanded."""
    return _eta_ty(sig, ctx.entries, _reduce_ty(unfold(sig, ty), _Fuel(DEFAULT_FUEL)))
