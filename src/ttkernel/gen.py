"""Typed term generators and enumerators for the property suites, and
``case_problem``, the per-case properties that ``tt fuzz`` and the tests judge by.

Generation is by typed synthesis: lambdas at function types, then a
weighted choice among constructors and spines whose (possibly
instantiated) result type matches the target. Enumeration is typed too:
it builds, size by size, only the terms and types the kernel checker
accepts, by the checker's own rules (conversion included, so a term that
fits the target only up to conversion is kept). The tests hold it to a
reference that filters every well-scoped tree through the checker: at
each size, the same terms, in whatever order. The checker types
beta-redexes, so the corpus has them.
"""

from __future__ import annotations

import random
from itertools import product

from .check import check, check_ty, conv_ty
from .errors import KernelError
from .nbe import normalize_tm
from .normal import is_normal
from .rewrite import DEFAULT_FUEL, oracle_equal, rw_normalize
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
    Ty,
    TyConst,
    Var,
    Zero,
    apps,
    binders,
    inst_params,
    motive_succ_case,
    node_count,
    shift,
    split_pi,
    subst1,
    succ,
    uses_index,
)


class GenerationStuck(Exception):
    """No synthesis rule applies at the requested type."""


def _rng(seed) -> random.Random:
    return seed if isinstance(seed, random.Random) else random.Random(seed)


# ---------------------------------------------------------------------------
# Random generation


def gen_term(sig: Signature, ctx: Context, ty: Ty, size: int, seed=0) -> Term:
    """A random well-typed term at ``ty``; deterministic per seed.

    ``size`` guides the node count. Raises GenerationStuck at an
    uninhabited type (say, a constant type in an empty context).
    """
    return _gen_term(sig, ctx, ty, max(size, 1), _rng(seed))


def _gen_term(sig, ctx, ty, size, rng) -> Term:
    if isinstance(ty, Pi):
        return Lam(_gen_term(sig, ctx.extend(ty.dom), ty.cod, size - 1, rng))
    heads = _spine_heads(sig, ctx, ty)
    if size < 2:
        # no budget to generate arguments, so only fully determined spines
        heads = [h for h in heads if len(h[2]) == len(h[1])]
    options = []
    if isinstance(ty, Nat):
        options.append("zero")
        if size >= 2:
            options += ["succ", "succ"]
    if heads:
        options += ["spine"] * 3
    if size >= 5:
        options += ["ind"]
    while options:
        pick = rng.choice(options)
        try:
            if pick == "zero":
                return Zero()
            if pick == "succ":
                return succ(1, _gen_term(sig, ctx, ty, size - 1, rng))
            if pick == "spine":
                return _gen_spine(sig, ctx, rng.choice(heads), size, rng)
            return _gen_ind(sig, ctx, ty, size, rng)
        except GenerationStuck:
            options = [o for o in options if o != pick]
    raise GenerationStuck("no inhabitant found")


def _spine_heads(sig, ctx, ty):
    """Heads whose result type can be made to match ``ty``: each a variable
    or a postulate's ``Const``, with its telescope and the match's binds
    and open positions.

    A match needs the result's former (and a constant type's name) to be the
    target's, and weakening keeps both, so a context entry is tested before
    it is weakened and a head that fails the test is never matched."""
    heads = []
    n = len(ctx)
    former = _former(ty)
    for i in range(n):
        if _former(split_pi(ctx.entries[n - 1 - i])[1]) != former:
            continue
        tele, result = split_pi(ctx.var_type(i))
        found = _match_result(result, ty, len(tele))
        if found is not None:
            heads.append((Var(i), tele, *found))
    for head, tele, result in sig.derived(_constants)[0].get(former, ()):
        found = _match_result(result, ty, len(tele))
        if found is not None:
            heads.append((head, tele, *found))
    return heads


def _constants(sig):
    """Built once per signature: the postulated term constants' heads by
    their result's former, each with the telescope and result of its type,
    and the type constants, both in declaration order."""
    by_former = {}
    for d in sig.of_kind(PostulateTm):
        tele, result = split_pi(sig.function(d.name)[0])
        by_former.setdefault(_former(result), []).append((Const(d.name), tele, result))
    return by_former, sig.of_kind(PostulateTy)


def _former(ty: Ty):
    """A type's former: its class, or a constant type's name."""
    return ty.name if ty.__class__ is TyConst else ty.__class__


def _gen_spine(sig, ctx, found, size, rng) -> Term:
    head, tele, binds, opened = found
    k = len(tele)
    committed = sum(node_count(a) for a in binds.values())
    free = max(k - len(binds), 1)
    share = max(1, (size - 1 - committed) // free)
    args = []
    for j in range(k):
        param_ty = inst_params(tele[j], tuple(args))
        if j not in binds:
            args.append(_gen_term(sig, ctx, param_ty, share, rng))
        elif j in opened and not typable(sig, ctx, binds[j], param_ty):
            raise GenerationStuck("a matched argument does not fit its parameter")
        elif isinstance(param_ty, Pi):  # a subterm of the target need not be eta-long
            args.append(rw_normalize(sig, ctx, param_ty, binds[j]))
        else:
            args.append(binds[j])
    return apps(head, args)


def _match_result(pattern: Ty, target: Ty, k: int):
    """Match a head's result type against the target.

    Returns telescope-position bindings for the parameters that occur in
    the result, and the positions the match leaves open: those at or under
    an application whose head is a parameter, whose terms the target fixes
    but whose types it does not. None when the head cannot produce the target.
    """
    binds: dict[int, Term] = {}
    opened: set[int] = set()
    if not _match_ty(pattern, target, k, binds, opened):
        return None
    return {k - 1 - idx: t for idx, t in binds.items()}, opened


def _match_ty(pat, tgt, k, binds, opened) -> bool:
    if k == 0:
        return pat == tgt
    match (pat, tgt):
        case (Nat(), Nat()):
            return True
        case (TyConst(c1, pas), TyConst(c2, tas)) if c1 == c2 and len(pas) == len(tas):
            return all(_match_tm(p, t, k, binds, opened) for p, t in zip(pas, tas))
    return False


def _match_tm(pat, tgt, k, binds, opened, under=False) -> bool:
    # under: inside an application whose head is a parameter
    match pat:
        case Var(j) if j < k:
            if under:
                opened.add(k - 1 - j)
            if j in binds:
                return binds[j] == tgt
            binds[j] = tgt
            return True
        case Var(j):
            return tgt == Var(j - k)
        case Zero():
            return tgt == Zero()
        case Succ(j, p):  # j successors of the target's, then p against the rest
            return (
                isinstance(tgt, Succ)
                and tgt.k >= j
                and _match_tm(p, succ(tgt.k - j, tgt.base), k, binds, opened, under)
            )
        case App(f, a):
            head = f
            while isinstance(head, App):
                head = head.fn
            under = under or isinstance(head, Var) and head.index < k
            return (
                isinstance(tgt, App)
                and _match_tm(f, tgt.fn, k, binds, opened, under)
                and _match_tm(a, tgt.arg, k, binds, opened, under)
            )
        case Lam(_) | NatInd(_, _, _, _):
            return _param_free_eq(pat, tgt, k)
        case Const(_):
            return tgt == pat
    return False


def _param_free_eq(pat, tgt, k) -> bool:
    # binders inside a result type: only match when no parameter occurs
    if any(uses_index(pat, j) for j in range(k)):
        return False
    return shift(pat, -k) == tgt


def _gen_ind(sig, ctx, ty, size, rng) -> Term:
    scrut = _gen_term(sig, ctx, Nat(), max(1, (size - 2) // 4), rng)
    motive = shift(ty, 1)
    if rng.random() < 0.3:
        dependent = [
            m
            for m in ty_abstractions(ty, scrut)
            # abstracting only some occurrences of the scrutinee can break
            # a dependency between a spine's arguments: re-check the family
            if uses_index(m, 0) and _accepts(check_ty, sig, ctx.extend(Nat()), m)
        ]
        if dependent:
            motive = rng.choice(dependent)
    budget = max(1, (size - 1 - node_count(scrut) - node_count(motive)) // 2)
    zcase = _gen_term(sig, ctx, subst1(motive, Zero()), budget, rng)
    ctx2 = ctx.extend(Nat()).extend(motive)
    scase = _gen_term(sig, ctx2, motive_succ_case(motive), budget, rng)
    return NatInd(scrut, motive, zcase, scase)


def gen_type(sig: Signature, ctx: Context, rng=None, size: int = 4) -> Ty:
    """A random well-formed type; Pi nesting is bounded by ``size``."""
    rng = _rng(rng if rng is not None else 0)
    choices = ["nat", "nat"]
    ty_consts = sig.derived(_constants)[1]
    if ty_consts:
        choices += ["const", "const"]
    if size >= 3:
        choices += ["pi", "pi"]
    while choices:
        pick = rng.choice(choices)
        if pick == "nat":
            return Nat()
        if pick == "pi":
            dom = gen_type(sig, ctx, rng, (size - 1) // 2)
            cod = gen_type(sig, ctx.extend(dom), rng, size - 1 - node_count(dom))
            return Pi(dom, cod)
        d = rng.choice(ty_consts)
        try:
            args = []
            for i, p in enumerate(d.params):
                args.append(_gen_term(sig, ctx, inst_params(p, tuple(args)), 2, rng))
            return TyConst(d.name, tuple(args))
        except GenerationStuck:
            choices = [c for c in choices if c != "const"]
    return Nat()


def gen_context(sig: Signature, rng=None, max_len: int = 3, size: int = 4) -> Context:
    rng = _rng(rng if rng is not None else 0)
    ctx = Context()
    for _ in range(rng.randint(0, max_len)):
        ctx = ctx.extend(gen_type(sig, ctx, rng, size))
    return ctx


def gen_cases(sig: Signature, seed, count: int, size: int, ty_size: int = 4):
    """Up to ``count`` random cases ``(ctx, ty, t)``, ``t`` of size ``size``;
    deterministic per seed. A draw at an uninhabited type is skipped, and
    generation gives up after ``10 * count`` of them."""
    rng = _rng(seed)
    done = stuck = 0
    while done < count and stuck < 10 * count:
        ctx = gen_context(sig, rng, max_len=3, size=4)
        ty = gen_type(sig, ctx, rng, size=ty_size)
        try:
            t = gen_term(sig, ctx, ty, size, rng)
        except GenerationStuck:
            stuck += 1
            continue
        done += 1
        yield ctx, ty, t


# ---------------------------------------------------------------------------
# Abstraction: every one-binder family whose instantiation gives back ``ty``


def ty_abstractions(ty: Ty, u: Term) -> list[Ty]:
    """All types B binding one variable with subst1(B, u) == ty.

    Purely syntactic: a partial abstraction can be ill-formed when the
    occurrences it skips carry a dependency, so callers who need a
    well-formed family must re-check the candidates.
    """
    return list(dict.fromkeys(_abs(ty, u, 0)))  # without duplicates, in order


def _abs(x, u, d) -> list:
    """Every way to abstract occurrences of ``u`` in ``x`` under ``d`` binders,
    each field's choices in field order, the first field varying slowest."""
    cls = x.__class__
    if cls is tuple:
        return list(product(*(_abs(a, u, d) for a in x)))
    if not isinstance(x, Node):  # a name or a successor count
        return [x]
    out = [Var(d)] if isinstance(x, Term) and x == shift(u, d) else []
    if cls is Var:
        out.append(Var(x.index + 1) if x.index >= d else x)
    elif cls is Succ:  # one successor per level: the list and order of a nested chain
        out += [succ(1, q) for q in _abs(succ(x.k - 1, x.base), u, d)]
    else:
        fields = zip(cls.__match_args__, binders(cls))
        out += [cls(*combo) for combo in product(*(_abs(getattr(x, f), u, d + b) for f, b in fields))]
    return out


# ---------------------------------------------------------------------------
# Well-typedness, as the kernel checker judges it


def typable(sig: Signature, ctx: Context, t: Term, ty: Ty) -> bool:
    """Whether ``t`` checks at ``ty``."""
    return _accepts(check, sig, ctx, t, ty)


def _accepts(judge, *args) -> bool:
    try:
        judge(*args)
    except KernelError:
        return False
    return True


# ---------------------------------------------------------------------------
# Per-case properties


def case_problem(sig: Signature, ctx: Context, ty: Ty, t: Term, fuel: int = DEFAULT_FUEL) -> str | None:
    """The first property the well-typed ``t`` fails, or None: its NbE normal
    form is normal, agrees with the rewriting oracle (given ``fuel``), is
    idempotent and checks at ``ty``."""
    nf = normalize_tm(sig, ctx, ty, t)
    if not is_normal(sig, ctx, ty, nf):
        return "not normal"
    if not oracle_equal(sig, ctx, ty, nf, t, fuel):
        return "oracle disagrees"
    if normalize_tm(sig, ctx, ty, nf) != nf:
        return "not idempotent"
    try:
        check(sig, ctx, nf, ty)
    except KernelError as e:
        return f"normal form fails to recheck ({e})"
    return None


# ---------------------------------------------------------------------------
# Exhaustive enumeration


class _TypedEnum:
    """Well-typed terms and well-formed types of an exact node count, built by
    ``check``'s rules one for one and memoized for one enumeration. Each list
    keeps the order its builder produced it in."""

    def __init__(self, sig: Signature):
        self.sig = sig
        self._lists: dict = {}  # (builder name, arguments) -> its entries
        self._fits: dict = {}  # (ctx, ty) -> {inferred type: whether check accepts it at ty}

    def inferable(self, ctx: Context, s: int) -> list:
        """``(term, type)`` for every term of size ``s`` that infers ``type``."""
        return self._memo(self._infer_new, ctx, s)

    def checkable(self, ctx: Context, ty: Ty, s: int) -> list:
        """Every term of size ``s`` that checks at ``ty``."""
        return self._memo(self._check_new, ctx, ty, s)

    def types(self, ctx: Context, s: int) -> list:
        """Every well-formed type of size ``s``."""
        return self._memo(self._types_new, ctx, s)

    def _memo(self, build, *args):
        memo = (build.__name__, *args)
        got = self._lists.get(memo)
        if got is None:
            got = self._lists[memo] = list(build(*args))
        return got

    def _infer_new(self, ctx, s):
        if s == 1:
            yield from ((Var(i), ctx.var_type(i)) for i in range(len(ctx)))
            yield Zero(), Nat()
            for d in self.sig.of_kind(PostulateTm):  # a head, which the App rule applies
                yield Const(d.name), self.sig.function(d.name)[0]
            return
        for p in self.checkable(ctx, Nat(), s - 1):
            yield succ(1, p), Nat()
        for s1 in range(1, s - 1):
            s2 = s - 1 - s1
            for f, f_ty in self.inferable(ctx, s1):
                if isinstance(f_ty, Pi):
                    for a in self.checkable(ctx, f_ty.dom, s2):
                        yield App(f, a), subst1(f_ty.cod, a)
            if s1 >= 2:  # beta-redexes: the argument's type is the binder's type
                for a, a_ty in self.inferable(ctx, s2):
                    for body, b_ty in self.inferable(ctx.extend(a_ty), s1 - 1):
                        yield App(Lam(body), a), subst1(b_ty, a)
        ind_slots = (
            lambda done, sz: self.checkable(ctx, Nat(), sz),
            lambda done, sz: self.types(ctx.extend(Nat()), sz),
            lambda done, sz: self.checkable(ctx, subst1(done[1], Zero()), sz),
            lambda done, sz: self.checkable(
                ctx.extend(Nat()).extend(done[1]), motive_succ_case(done[1]), sz
            ),
        )
        for scrut, motive, zcase, scase in self._parts(ind_slots, s - 1):
            yield NatInd(scrut, motive, zcase, scase), subst1(motive, scrut)

    def _check_new(self, ctx, ty, s):
        if isinstance(ty, Pi) and s >= 2:
            for body in self.checkable(ctx.extend(ty.dom), ty.cod, s - 1):
                yield Lam(body)
        fits = self._fits.setdefault((ctx, ty), {})
        for t, actual in self.inferable(ctx, s):
            ok = fits.get(actual)
            if ok is None:  # check's last step, once per inferred type
                ok = fits[actual] = actual == ty or conv_ty(self.sig, ctx, ty, actual)
            if ok:
                yield t

    def _types_new(self, ctx, s):
        if s == 1:
            yield Nat()
            for d in self.sig.of_kind(PostulateTy):
                if not d.params:
                    yield TyConst(d.name)
            return
        for d in self.sig.of_kind(PostulateTy):
            if d.params:
                for args in self._parts(self._arg_slots(ctx, d.params), s - 1):
                    yield TyConst(d.name, args)
        for s1 in range(1, s - 1):
            for dom in self.types(ctx, s1):
                for cod in self.types(ctx.extend(dom), s - 1 - s1):
                    yield Pi(dom, cod)

    def _arg_slots(self, ctx, params):
        # argument i checks at its parameter instantiated by the arguments before it
        return tuple(
            lambda done, sz, p=p: self.checkable(ctx, inst_params(p, done), sz) for p in params
        )

    def _parts(self, slots, budget, done=()):
        """Every tuple of parts, one per slot, of ``budget`` nodes in all; a
        slot maps the parts before it and a size to the parts of that size."""
        i = len(done)
        if i == len(slots):
            yield done
            return
        last = i == len(slots) - 1
        for sz in range(budget if last else 1, budget - (len(slots) - 1 - i) + 1):
            for part in slots[i](done, sz):
                yield from self._parts(slots, budget - sz, done + (part,))


def enum_terms(sig: Signature, ctx: Context, ty: Ty, max_size: int) -> list[Term]:
    """Every well-typed term at ``ty`` with node count <= ``max_size``, by
    size and, within a size, in the enumerator's own deterministic order."""
    typed = _TypedEnum(sig)
    return [t for s in range(1, max_size + 1) for t in typed.checkable(ctx, ty, s)]
