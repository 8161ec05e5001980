"""The normal-form grammar and the reference recognizer over it.

The grammar is the second tree family NbE's readback built before it
built syntax: mutually inductive grammars of normal types, normal terms
and neutral terms, with ``erase`` back to core syntax. Each grammar class
erases to the syntax class with the same fields in the same order, so
erasure is one walk, and two trees are equal exactly when their erasures
are.

``to_nf`` is the tree-building recognizer as it was when ``is_normal``
rebuilt the whole normal-form tree over a term and compared it with
None. It returns the unique ``NfTm`` over a term at a type, or None if
the term is not in the grammar, and ``to_nf_ty`` the ``NfTy`` over a
type. ``normal.is_normal`` must answer ``to_nf(...) is not None``,
``normal._is_normal_ty`` ``to_nf_ty(...) is not None``, and NbE's
readback must be the erasure of the tree ``to_nf`` finds over it."""

from __future__ import annotations

from ttkernel.normal import _reduced
from ttkernel.signature import PostulateTm, PostulateTy, Signature
from ttkernel.syntax import (
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
    alpha_eq,
    inst_params,
    motive_succ_case,
    node,
    subst1,
)


class NfTy(Node):
    """Normal types."""
    __slots__ = ()


class NfTm(Node):
    """Normal terms."""
    __slots__ = ()


class NeTm(NfTm):
    """Neutral terms: blocked eliminations headed by a variable or constant,
    normal at Nat and at type constants."""
    __slots__ = ()


@node
class FunNf(NfTy):
    dom: NfTy
    cod: NfTy


@node
class NatNf(NfTy):
    pass


@node
class TyConstNf(NfTy):
    name: str
    args: tuple[NfTm, ...] = ()


@node
class LamNf(NfTm):
    body: NfTm


@node
class ZeroNf(NfTm):
    pass


@node
class SuccNf(NfTm):
    """``k`` successors over ``base``."""

    k: int
    base: NfTm


@node
class VarNe(NeTm):
    index: int


@node
class AppNe(NeTm):
    fn: NeTm
    arg: NfTm


@node
class NatIndNe(NeTm):
    scrut: NeTm
    motive: NfTy
    zcase: NfTm
    scase: NfTm


@node
class TmConstNe(NeTm):
    name: str
    args: tuple[NfTm, ...] = ()


# The syntax class each grammar class erases to.
_ERASES_TO = {
    FunNf: Pi, NatNf: Nat, TyConstNf: TyConst, LamNf: Lam, ZeroNf: Zero, SuccNf: Succ,
    VarNe: Var, AppNe: App, NatIndNe: NatInd, TmConstNe: TmConst,
}


def erase(n):
    """Forget normality structure."""
    cls = n.__class__
    if cls is tuple:
        return tuple(map(erase, n))
    if not isinstance(n, Node):  # a name, an index or a successor count
        return n
    parts = []  # a loop, not a comprehension: one frame per level
    for f in cls.__match_args__:
        parts.append(erase(getattr(n, f)))
    return _ERASES_TO[cls](*parts)


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
