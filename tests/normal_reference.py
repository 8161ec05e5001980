"""The reference recognizer: the tree-building recognizer as it was when
``is_normal`` rebuilt the whole normal-form tree over a term and compared
it with None. ``to_nf`` returns the unique ``NfTm`` over a term at a type,
or None if the term is not in the grammar, and ``to_nf_ty`` the ``NfTy``
over a type. ``normal.is_normal`` must answer ``to_nf(...) is not None``,
and ``normal._is_normal_ty`` ``to_nf_ty(...) is not None``."""

from __future__ import annotations

from ttkernel.normal import (
    AppNe,
    FunNf,
    LamNf,
    NatIndNe,
    NatNf,
    NeTm,
    NfTm,
    NfTy,
    SuccNf,
    TmConstNe,
    TyConstNf,
    VarNe,
    ZeroNf,
    _reduced,
)
from ttkernel.signature import PostulateTm, PostulateTy, Signature
from ttkernel.syntax import (
    App,
    Context,
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
    alpha_eq,
    inst_params,
    motive_succ_case,
    subst1,
)


def to_nf(sig: Signature, ctx: Context, ty: Ty, t: Term) -> NfTm | None:
    """The unique normal-form tree over ``t`` at ``ty``, or None if ``t`` is
    not in the grammar.

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
            if not isinstance(t, Lam):
                return None  # eta-long: normal inhabitants of Pi are lambdas
            body = to_nf(sig, ctx.extend(dom), cod, t.body)
            return None if body is None else LamNf(body)
        case Nat():
            match t:
                case Zero():
                    return ZeroNf()
                case Succ(k, base):
                    nf = to_nf(sig, ctx, ty, base)
                    return None if nf is None else SuccNf(k, nf)
    spine = _to_ne(sig, ctx, t)
    if spine is None:
        return None
    ne, have = spine
    if have == ty:
        return ne
    if isinstance(ty, TyConst) and alpha_eq(_reduced(sig, ctx, have), _reduced(sig, ctx, ty)):
        return ne
    return None


def to_nf_ty(sig: Signature, ctx: Context, ty: Ty) -> NfTy | None:
    match ty:
        case Pi(dom, cod):
            dnf = to_nf_ty(sig, ctx, dom)
            cnf = to_nf_ty(sig, ctx.extend(dom), cod)
            return None if dnf is None or cnf is None else FunNf(dnf, cnf)
        case Nat():
            return NatNf()
        case TyConst(name, args):
            decl = sig.find(PostulateTy, name)
            idx = None if decl is None else _arg_nfs(sig, ctx, decl.params, args)
            return None if idx is None else TyConstNf(name, idx)
    raise AssertionError(f"not a type: {ty!r}")


def _arg_nfs(sig, ctx, params, args) -> tuple[NfTm, ...] | None:
    """The normal-form trees of a constant's arguments, checked against its telescope."""
    if len(params) != len(args):
        return None
    nfs = []
    for i, a in enumerate(args):
        anf = to_nf(sig, ctx, inst_params(params[i], tuple(args[:i])), a)
        if anf is None:
            return None
        nfs.append(anf)
    return tuple(nfs)


def _to_ne(sig: Signature, ctx: Context, t: Term) -> tuple[NeTm, Ty] | None:
    """Parse a neutral spine, returning its tree and its inferred type."""
    match t:
        case Var(i):
            if not 0 <= i < len(ctx):
                return None
            return VarNe(i), ctx.var_type(i)
        case App(f, a):
            head = _to_ne(sig, ctx, f)
            if head is None or not isinstance(head[1], Pi):
                return None
            anf = to_nf(sig, ctx, head[1].dom, a)
            if anf is None:
                return None
            return AppNe(head[0], anf), subst1(head[1].cod, a)
        case NatInd(scrut, motive, z, s):
            head = _to_ne(sig, ctx, scrut)
            if head is None or not isinstance(head[1], Nat):
                return None
            mnf = to_nf_ty(sig, ctx.extend(Nat()), motive)
            if mnf is None:  # without a motive, the cases have no types to check at
                return None
            znf = to_nf(sig, ctx, subst1(motive, Zero()), z)
            ctx2 = ctx.extend(Nat()).extend(motive)
            snf = to_nf(sig, ctx2, motive_succ_case(motive), s)
            if znf is None or snf is None:
                return None
            return NatIndNe(head[0], mnf, znf, snf), subst1(motive, scrut)
        case TmConst(name, args):
            decl = sig.find(PostulateTm, name)
            if decl is None:
                return None
            nfs = _arg_nfs(sig, ctx, decl.params, args)
            if nfs is None:
                return None
            return TmConstNe(name, nfs), inst_params(decl.result, args)
        case _:
            return None
