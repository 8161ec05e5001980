"""Bidirectional typechecker, conversion by normal-form comparison, and ``declare``."""

from __future__ import annotations

from .errors import (
    ArityMismatch,
    CannotInfer,
    DuplicateName,
    Mismatch,
    MotiveMismatch,
    NotAFunction,
    UnboundVariable,
    UnknownConstant,
)
from .nbe import normalize_tm, normalize_ty
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
    TmConst,
    Ty,
    TyConst,
    Var,
    Zero,
    inst_params,
    motive_succ_case,
    subst1,
)


def check_ty(sig: Signature, ctx: Context, ty: Ty) -> None:
    """Check that ``ty`` is a well-formed type."""
    match ty:
        case Pi(dom, cod):
            check_ty(sig, ctx, dom)
            check_ty(sig, ctx.extend(dom), cod)
        case Nat():
            pass
        case TyConst(name, args):
            decl = sig.find(PostulateTy, name)
            if decl is None:
                raise UnknownConstant(f"'{name}' is not a type constant")
            _check_args(sig, ctx, name, decl.params, args)
        case _:
            raise AssertionError(f"not a type: {ty!r}")


def _check_args(sig, ctx, name, params, args):
    if len(params) != len(args):
        raise ArityMismatch(
            f"'{name}' expects {len(params)} argument(s), got {len(args)}"
        )
    for i, a in enumerate(args):
        check(sig, ctx, a, inst_params(params[i], tuple(args[:i])))


def infer(sig: Signature, ctx: Context, t: Term) -> Ty:
    """Synthesize a type, or fail; lambdas are check-only unless applied."""
    # the frequent classes are tested by identity before the rare ones
    cls = t.__class__
    if cls is App:
        f, a = t.fn, t.arg
        if f.__class__ is Lam:
            # a beta-redex: the argument's type is the binder's type
            a_ty = infer(sig, ctx, a)
            return subst1(infer(sig, ctx.extend(a_ty), f.body), a)
        # a type's head (Pi, Nat or a constant) is stable under normalization
        fn_ty = infer(sig, ctx, f)
        if fn_ty.__class__ is not Pi:
            raise NotAFunction("application head is not a function")
        check(sig, ctx, a, fn_ty.dom)
        return subst1(fn_ty.cod, a)
    if cls is Var:
        i = t.index
        if not 0 <= i < len(ctx):
            raise UnboundVariable(f"unbound variable {i}")
        return ctx.var_type(i)
    if cls is Const:
        fn = sig.function(t.name)
        if fn is None:
            raise UnknownConstant(f"'{t.name}' is neither a definition nor a term constant")
        return fn[0]
    if cls is Succ:
        check(sig, ctx, t.base, Nat())
        return Nat()
    match t:
        case Lam(_):
            raise CannotInfer("cannot infer the type of a lambda; annotate it")
        case Zero():
            return Nat()
        case NatInd(scrut, motive, zcase, scase):
            check(sig, ctx, scrut, Nat())
            check_ty(sig, ctx.extend(Nat()), motive)
            try:
                check(sig, ctx, zcase, subst1(motive, Zero()))
            except Mismatch as e:
                raise MotiveMismatch("zero", e) from e
            ctx2 = ctx.extend(Nat()).extend(motive)
            try:
                check(sig, ctx2, scase, motive_succ_case(motive))
            except Mismatch as e:
                raise MotiveMismatch("successor", e) from e
            return subst1(motive, scrut)
        case TmConst(name, args):
            decl = sig.find(PostulateTm, name)
            if decl is None:
                raise UnknownConstant(f"'{name}' is not a term constant")
            _check_args(sig, ctx, name, decl.params, args)
            return inst_params(decl.result, args)
    raise AssertionError(f"not a term: {t!r}")


def check(sig: Signature, ctx: Context, t: Term, ty: Ty) -> None:
    """Check ``t`` against ``ty``; conversion sees through beta/iota/eta."""
    if t.__class__ is Lam:
        if ty.__class__ is not Pi:
            raise Mismatch(sig, ctx, ty)
        check(sig, ctx.extend(ty.dom), t.body, ty.cod)
        return
    actual = infer(sig, ctx, t)
    if actual == ty:  # syntactic equality implies conversion
        return
    if not conv_ty(sig, ctx, ty, actual):
        raise Mismatch(sig, ctx, ty, actual)


def conv_ty(sig: Signature, ctx: Context, a: Ty, b: Ty) -> bool:
    """Definitional equality of well-formed types."""
    return normalize_ty(sig, ctx, a) == normalize_ty(sig, ctx, b)


def conv_tm(sig: Signature, ctx: Context, ty: Ty, t: Term, u: Term) -> bool:
    """Definitional equality of terms checked at ``ty``."""
    return normalize_tm(sig, ctx, ty, t) == normalize_tm(sig, ctx, ty, u)


def declare(sig: Signature, decl: Declaration) -> Signature:
    """Check ``decl`` against ``sig`` and append it."""
    if sig.find(Declaration, decl.name) is not None:
        raise DuplicateName(f"duplicate name '{decl.name}'")
    match decl:
        case PostulateTy(_, params) | PostulateTm(_, params, _):
            ctx = Context()
            for ty in params:
                check_ty(sig, ctx, ty)
                ctx = ctx.extend(ty)
            if isinstance(decl, PostulateTm):
                check_ty(sig, ctx, decl.result)
        case Define(_, declared_type, body):
            check_ty(sig, Context(), declared_type)
            check(sig, Context(), body, declared_type)
        case _:
            raise AssertionError(f"not a declaration: {decl!r}")
    return sig.extend(decl)
