"""Normalization by evaluation.

Evaluation sends well-typed syntax into the semantic domain, computing
the beta rules of application and the Nat eliminator on the way; reify
reads values back into syntax, as the eta-long normal terms that
``normal.is_normal`` recognizes, minting fresh variables as de Bruijn
levels from the current depth. ``normalize_tm`` composes the two over
the identity environment of a context. A term constant evaluates to its
signature entry: a definition's is the value of its body's normal form,
filled on first use, and a postulate, which has no body, is its own
``Const`` head, a neutral. An elimination that a neutral blocks builds
the syntax's own node over values: applying a neutral gives ``App`` and
eliminating one gives ``NatInd``; a neutral is told by its class, one of
``NEUTRAL``.
Types never compute, so a semantic type is the syntactic type in a
closure over its environment: reify dispatches on its former, and only
``nfty`` evaluates a type's parts, the arguments of a type constant,
when it reads them back. Only a variable holds a type; ``reify_ne``
synthesizes a neutral's type from its head (a postulate's is its declared
Pi), and reads each argument back at the domain of the type its function
synthesizes.
"""

from __future__ import annotations

from .domain import Closure, Env, NVar
from .signature import PostulateTy, Signature
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
    Ty,
    TyConst,
    Var,
    Zero,
    succ,
)


NAT = Closure((), Nat())
NEUTRAL = (NVar, App, NatInd, Const)  # a neutral value's classes


def eval_ty(sig: Signature, env: Env, ty: Ty) -> Closure:
    """The semantic type: ``ty`` as it stands, under ``env``."""
    return Closure(env, ty)


def eval_tm(sig: Signature, env: Env, t: Term) -> Node:
    # the frequent classes are tested by identity before the rare ones
    cls = t.__class__
    if cls is Var:
        return env[len(env) - 1 - t.index]
    if cls is App:
        return apply(sig, eval_tm(sig, env, t.fn), eval_tm(sig, env, t.arg))
    if cls is Lam:
        return Closure(env, t.body)
    if cls is Succ:  # a numeral is its own value, and a closed one comes back as it is
        base = eval_tm(sig, env, t.base)
        return t if base is t.base else succ(t.k, base)
    if cls is Const:
        return sig.entry("nbe", t.name, _constant_value)
    if cls is Zero:
        return t
    if cls is NatInd:
        return _nat_ind(sig, env, t.motive, t.zcase, t.scase, eval_tm(sig, env, t.scrut))
    raise AssertionError(f"not a term: {t!r}")


def _constant_value(sig, ty: Ty, body: Term) -> Node:
    """A constant's entry: the value of its body's normal form, so that an
    application evaluates the unfolded body once, whatever the definitions
    the body names."""
    return eval_tm(sig, (), reify(sig, 0, Closure((), ty), eval_tm(sig, (), body)))


def _nat_ind(sig, env, motive, zcase, scase, scrut: Node) -> Node:
    """Eliminate ``scrut``: the zero case (or the blocked neutral) once at
    the base of its successor chain, then the successor case once per
    predecessor, innermost first, unless it has a closed form.

    Closed form: at motive ``Nat`` over k >= 2 successors, the successor
    case is evaluated once more, with fresh markers for ``p`` and ``r``. If
    its value is ``r``'s marker, or ``j`` successors over it, then each
    unrolling returns ``r``, or adds ``j`` successors to it, and the result
    is ``rec`` or ``j * k`` successors over ``rec``. This is sound because a
    value computed over fresh neutrals is the normal form of the open case
    (``r`` or ``succ^j r``), and substituting values into it creates no
    redex (Abel 2013). Markers are told apart by identity: ``==`` is
    structural, so the markers of nested probes are equal. They never
    escape, since only ``rec`` or successors over it are returned."""
    k, base = (scrut.k, scrut.base) if scrut.__class__ is Succ else (0, scrut)
    if base.__class__ is Zero:
        rec = eval_tm(sig, env, zcase)
    elif isinstance(base, NEUTRAL):
        rec = NatInd(base, Closure(env, motive), eval_tm(sig, env, zcase), Closure(env, scase))
    else:
        raise AssertionError(f"eliminating a non-Nat value: {base!r}")
    if k >= 2 and motive.__class__ is Nat:
        # level -1 is no variable's, so reify_ne asserts on a marker that escaped
        r = NVar(-1, NAT)
        step = eval_tm(sig, env + (NVar(-1, NAT), r), scase)
        if step is r:
            return rec
        if step.__class__ is Succ and step.base is r:
            return succ(step.k * k, rec)
    for j in range(k):
        rec = eval_tm(sig, env + (succ(j, base), rec), scase)
    return rec


def apply(sig: Signature, fn: Node, arg: Node) -> Node:
    """Apply a lambda's closure, or extend a neutral function's spine."""
    if fn.__class__ is Closure:
        return eval_tm(sig, fn.env + (arg,), fn.body)
    if isinstance(fn, NEUTRAL):
        return App(fn, arg)
    raise AssertionError(f"applying a non-function: {fn!r}")


def reify(sig: Signature, depth: int, ty: Closure, v: Node) -> Term:
    """Read a value back as an eta-long normal form under ``depth`` binders;
    a neutral at Nat or at a type constant is itself a normal term there,
    and a numeral whose base reads back as it is comes back as it is."""
    # the type's former and the value's class are tested by identity
    env, body = ty.env, ty.body
    former, cls = body.__class__, v.__class__
    if former is Nat:
        if cls is Succ:
            base = reify(sig, depth, ty, v.base)
            return v if base is v.base else succ(v.k, base)
        if cls is Zero:
            return v
        return reify_ne(sig, depth, v)[0]
    if former is Pi:
        fresh = NVar(depth, Closure(env, body.dom))
        return Lam(reify(sig, depth + 1, Closure(env + (fresh,), body.cod), apply(sig, v, fresh)))
    if former is TyConst:
        return reify_ne(sig, depth, v)[0]
    raise AssertionError(f"not a type: {body!r}")


def reify_ne(sig: Signature, depth: int, ne: Node) -> tuple[Term, Closure]:
    """Read a neutral back, converting levels to indices; returns the type
    it synthesizes from its head too."""
    cls = ne.__class__
    if cls is App:
        fn_nf, fn_ty = reify_ne(sig, depth, ne.fn)
        env, pi, arg = fn_ty.env, fn_ty.body, ne.arg
        assert pi.__class__ is Pi, f"spine head is not a function: {pi!r}"
        return App(fn_nf, reify(sig, depth, Closure(env, pi.dom), arg)), Closure(env + (arg,), pi.cod)
    if cls is NVar:
        level = ne.level
        assert 0 <= level < depth, f"level {level} escapes depth {depth}"
        return Var(depth - 1 - level), ne.ty
    if cls is Const:
        fn = sig.function(ne.name)
        assert fn is not None and fn[1] is None, f"'{ne.name}' is no postulated term constant"
        return ne, Closure((), fn[0])
    if cls is NatInd:
        motive, scase = ne.motive, ne.scase
        env, body = motive.env, motive.body
        fresh_n = NVar(depth, NAT)
        motive_n = Closure(env + (fresh_n,), body)
        motive_nf = nfty(sig, depth + 1, motive_n)
        zcase_nf = reify(sig, depth, Closure(env + (Zero(),), body), ne.zcase)
        fresh_ih = NVar(depth + 1, motive_n)
        step = eval_tm(sig, scase.env + (fresh_n, fresh_ih), scase.body)
        scase_nf = reify(sig, depth + 2, Closure(env + (succ(1, fresh_n),), body), step)
        nf = NatInd(reify_ne(sig, depth, ne.scrut)[0], motive_nf, zcase_nf, scase_nf)
        return nf, Closure(env + (ne.scrut,), body)
    raise AssertionError(f"not a neutral: {ne!r}")


def _reify_args(sig, depth, params, args) -> tuple[Term, ...]:
    nfs = []
    for i, v in enumerate(args):
        nfs.append(reify(sig, depth, Closure(args[:i], params[i]), v))
    return tuple(nfs)


def nfty(sig: Signature, depth: int, ty: Closure) -> Ty:
    """Read a semantic type back as a normal type, evaluating a type
    constant's arguments on the way."""
    env, body = ty.env, ty.body
    cls = body.__class__
    if cls is Nat:
        return body
    if cls is Pi:
        dom_ty = Closure(env, body.dom)
        fresh = NVar(depth, dom_ty)
        return Pi(nfty(sig, depth, dom_ty), nfty(sig, depth + 1, Closure(env + (fresh,), body.cod)))
    if cls is TyConst:
        decl = sig.find(PostulateTy, body.name)
        assert decl is not None, f"'{body.name}' is not a type constant"
        values = tuple([eval_tm(sig, env, a) for a in body.args])
        return TyConst(body.name, _reify_args(sig, depth, decl.params, values))
    raise AssertionError(f"not a type: {body!r}")


def id_env(sig: Signature, ctx: Context) -> Env:
    """Environment sending each context variable to itself: a fresh
    variable at its level and its entry's semantic type."""
    env: Env = ()
    for level, entry in enumerate(ctx.entries):
        env += (NVar(level, Closure(env, entry)),)
    return env


def normalize_tm(sig: Signature, ctx: Context, ty: Ty, t: Term) -> Term:
    env = id_env(sig, ctx)
    return reify(sig, len(ctx), Closure(env, ty), eval_tm(sig, env, t))


def normalize_ty(sig: Signature, ctx: Context, ty: Ty) -> Ty:
    return nfty(sig, len(ctx), Closure(id_env(sig, ctx), ty))
