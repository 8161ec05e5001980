"""The recognition predicate, and the reference grammar it is held to."""

import dataclasses

import pytest

from ttkernel import normal, rewrite
from ttkernel.gen import case_problem, enum_terms, gen_cases
from ttkernel.nbe import normalize_tm, normalize_ty
from ttkernel.normal import _is_normal_ty, is_normal
from ttkernel.surface import elaborate, parse
from ttkernel.syntax import (
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
    binders,
    inst_params,
    numeral,
    shift,
    subst_many,
    uses_index,
    walk,
)

import normal_reference
from conftest import CROSSVAL, HIGHER_ORDER_SOURCES
from enum_reference import PARTITION_TARGETS
from normal_reference import (
    _ERASES_TO,
    AppNe,
    FunNf,
    LamNf,
    NatNf,
    NfTm,
    NfTy,
    SuccNf,
    TyConstNf,
    VarNe,
    ZeroNf,
    erase,
    to_nf,
    to_nf_ty,
)

NN = Pi(Nat(), Nat())


def test_erase_homomorphic():
    assert erase(SuccNf(1, ZeroNf())) == Succ(1, Zero())
    assert erase(VarNe(0)) == Var(0)


def test_erasure_table_is_one_to_one_on_the_grammar():
    # each grammar class erases to a syntax class of its own, types to types
    # and terms to terms: no coercion node that erases to its payload
    def below(base):
        return {c for s in base.__subclasses__() for c in below(s) | {s}}

    grammar = {c for c in below(NfTy) | below(NfTm) if dataclasses.is_dataclass(c)}
    assert grammar == set(_ERASES_TO)
    assert len(set(_ERASES_TO.values())) == len(_ERASES_TO)
    for cls, syntax_cls in _ERASES_TO.items():
        assert issubclass(syntax_cls, Ty if issubclass(cls, NfTy) else Term), cls


def test_erase_layers():
    n = LamNf(AppNe(VarNe(1), VarNe(0)))
    assert erase(n) == Lam(App(Var(1), Var(0)))


def test_is_normal_numeral(sig_empty):
    assert is_normal(sig_empty, Context(), Nat(), Succ(1, Zero()))


def test_is_normal_rejects_beta_redex(sig_empty):
    assert not is_normal(sig_empty, Context(), Nat(), App(Lam(Var(0)), Zero()))


def test_is_normal_rejects_bare_neutral_at_function_type(sig_empty):
    # eta-long discipline: a variable of function type is not yet normal
    ctx = Context((NN,))
    assert not is_normal(sig_empty, ctx, NN, Var(0))
    assert is_normal(sig_empty, ctx, NN, Lam(App(Var(1), Var(0))))


def test_is_normal_rejects_reducible_eliminator(sig_empty):
    from ttkernel.syntax import NatInd

    t = NatInd(Zero(), Nat(), Zero(), Var(0))
    assert not is_normal(sig_empty, Context(), Nat(), t)


def test_is_normal_rejects_an_eliminator_whose_motive_is_no_type():
    # the zero and successor cases are not looked at without a motive
    sig = elaborate(parse("postulate A\npostulate B (x : A)\npostulate f : (x : A) -> B x\ndef two : Nat := 2"))
    a = TyConst("A")
    ctx = Context((a, Nat()))  # v0 : A, v1 : Nat
    assert is_normal(sig, ctx, a, NatInd(Var(0), a, Var(1), Var(0)))
    for name in ("f", "two", "nope"):  # a term constant, a definition, no constant
        assert not is_normal(sig, ctx, a, NatInd(Var(0), TyConst(name), Var(1), Var(0))), name


def test_is_normal_rejects_what_is_no_neutral(sig_crossval):
    # each rejected spine beside the normal spine it differs from
    redex = App(Lam(Var(0)), Zero())
    ctx = Context((NN, Nat()))  # u : Nat -> Nat, v : Nat
    ind = NatInd(Var(0), Nat(), Zero(), Var(0))
    cases = [
        (Var(0), Var(2)),  # a variable out of range
        (App(Var(1), Var(0)), App(Var(1), redex)),  # a spine argument
        (ind, NatInd(Var(0), Nat(), redex, Var(0))),  # a zero case
        (ind, NatInd(Var(0), Nat(), Zero(), App(Lam(Var(0)), Var(0)))),  # a successor case
    ]
    for normal, rejected in cases:
        assert is_normal(sig_crossval, ctx, Nat(), normal), normal
        assert not is_normal(sig_crossval, ctx, Nat(), rejected), rejected
    # a postulate's spine and its argument; a definition's head is never normal
    c = TyConst("C", (Var(0),))
    assert is_normal(sig_crossval, ctx, c, App(Const("h"), Var(0)))
    assert not is_normal(sig_crossval, ctx, c, App(Const("h"), App(Lam(Var(0)), Var(0))))
    assert not is_normal(sig_crossval, ctx, Nat(), App(Const("twice"), Var(0)))
    # a type constant's name and an unknown name are no term constants either
    assert not is_normal(sig_crossval, ctx, Nat(), Const("A"))
    assert not is_normal(sig_crossval, ctx, Nat(), App(Const("nope"), Var(0)))
    # a neutral at a base type: its spine's type against the given one, up to
    # the oracle's normal form at a type constant
    hv = App(Const("h"), Var(0))
    ctx_a = Context((TyConst("A"), TyConst("A")))  # a, a' : A
    fa = App(Const("f"), Var(1))
    base_cases = [
        (ctx, c, hv, True),
        (ctx, TyConst("C", (App(Lam(Var(0)), Var(0)),)), hv, True),
        (ctx, TyConst("C", (Zero(),)), hv, False),
        (ctx, Nat(), hv, False),
        (ctx, Nat(), Var(0), True),
        (ctx, c, Var(0), False),
        (ctx_a, TyConst("B", (Var(1),)), fa, True),
        (ctx_a, TyConst("B", (Var(0),)), fa, False),
    ]
    for at, ty, t, normal in base_cases:
        assert is_normal(sig_crossval, at, ty, t) is normal, (ty, t)


def test_is_normal_ty(sig_abf, sig_crossval):
    from ttkernel.syntax import TyConst

    ctx = Context((TyConst("A"),))
    assert _is_normal_ty(sig_abf, ctx, TyConst("B", (Var(0),)))
    assert not _is_normal_ty(sig_abf, ctx, TyConst("B", (App(Lam(Var(0)), Var(0)),)))
    # a term constant, a definition and an unknown name are no type constants
    for name in ("c0", "twice", "nope"):
        assert not _is_normal_ty(sig_crossval, ctx, TyConst(name))


def test_roundtrip_unique_reconstruction(sig_abf):
    # the grammar tree rebuilt over a normal form erases to that normal form
    for ctx, ty, t in gen_cases(sig_abf, 11, 100, 8):
        n = normalize_tm(sig_abf, ctx, ty, t)
        back = normalize_ty(sig_abf, ctx, ty)
        assert erase(to_nf(sig_abf, ctx, back, n)) == n
        assert erase(to_nf_ty(sig_abf, ctx, back)) == back


def test_erase_injective_small(sig_empty):
    # exhaustively: distinct normal forms at a fixed type have distinct
    # grammar trees, each erasing back to its own normal form
    ctx = Context((Nat(),))
    seen = {}
    for t in enum_terms(sig_empty, ctx, Nat(), 5):
        e = normalize_tm(sig_empty, ctx, Nat(), t)
        n = to_nf(sig_empty, ctx, Nat(), e)
        assert erase(n) == e
        assert seen.setdefault(n, e) == e


def test_numeral_roundtrip(sig_empty):
    n = normalize_tm(sig_empty, Context(), Nat(), numeral(4))
    assert n == Succ(4, Zero())
    assert to_nf(sig_empty, Context(), Nat(), numeral(4)) == SuccNf(4, ZeroNf())


def test_fun_nf_shape(sig_empty):
    assert to_nf_ty(sig_empty, Context(), NN) == FunNf(NatNf(), NatNf())


def test_is_normal_reduces_the_types_it_computes_by_substitution():
    sig = elaborate(parse("postulate C (n : Nat)\npostulate c0 : C zero\n"
                          "postulate q : (u : Nat -> Nat) -> C (u zero)"))
    # q's result C (u zero) at the eta-long u = \x. v0 x is C ((\x. v0 x) zero)
    ctx = Context((NN,))
    ty = TyConst("C", (App(Var(0), Zero()),))
    t = App(Const("q"), Lam(App(Var(1), Var(0))))
    assert normalize_tm(sig, ctx, ty, App(Const("q"), Var(0))) == t
    assert is_normal(sig, ctx, ty, t)
    # the motive C (ind(x; _. Nat; zero; p r. r)) at zero and at succ p has
    # an iota-redex in its argument: C zero and C (ind(p; ...)) once reduced
    ctx = Context((Nat(),))
    motive = TyConst("C", (NatInd(Var(0), Nat(), Zero(), Var(0)),))
    t = NatInd(Var(0), motive, Const("c0"), Var(0))
    ty = TyConst("C", (NatInd(Var(0), Nat(), Zero(), Var(0)),))
    assert normalize_tm(sig, ctx, ty, t) == t
    assert is_normal(sig, ctx, ty, t)


def test_the_recognizer_spends_no_oracle_steps(monkeypatch):
    # is_normal reduces q's result type C ((\x. v0 x) zero) on its own tank,
    # so a counter patched over the oracle's fuel, as the benchmark's tracer
    # patches it, counts none of those steps
    spent = {"oracle": 0, "recognizer": 0}

    def counting(fuel, key):
        class Counting(fuel):
            def spend(self):
                spent[key] += 1
                super().spend()

        return Counting

    monkeypatch.setattr(rewrite, "_Fuel", counting(rewrite._Fuel, "oracle"))
    monkeypatch.setattr(normal, "_Fuel", counting(normal._Fuel, "recognizer"))
    sig = elaborate(parse("postulate C (n : Nat)\npostulate q : (u : Nat -> Nat) -> C (u zero)"))
    ctx, ty = Context((NN,)), TyConst("C", (App(Var(0), Zero()),))
    assert is_normal(sig, ctx, ty, App(Const("q"), Lam(App(Var(1), Var(0)))))
    assert spent == {"oracle": 0, "recognizer": 1}


# ind(zero; _. Nat; zero; p r. r): an iota-redex, reducing to zero
I = NatInd(Zero(), Nat(), Zero(), Var(0))


# a type argument at a function type: e v is normal as e (\x. v x) at E v
ETA_SHORT = "postulate E (u : Nat -> Nat)\npostulate e : (w : Nat -> Nat) -> E w\n"


@pytest.mark.parametrize(
    ("source", "ctx", "ty", "t"),
    [
        (CROSSVAL, Context(), TyConst("C", (I,)), App(Const("h"), I)),
        (CROSSVAL, Context((TyConst("C", (I,)),)), TyConst("C", (I,)), Var(0)),
        (ETA_SHORT, Context((NN,)), TyConst("E", (Var(0),)), App(Const("e"), Var(0))),
    ],
    ids=["h I at C I", "v : C I", "e v at E v"],
)
def test_normal_at_a_type_with_a_redex(source, ctx, ty, t):
    # the recognizer normalizes the given type where it compares it with the
    # spine's, so a redex or an eta-short argument in the context or the
    # target type is no fault
    sig = elaborate(parse(source))
    assert case_problem(sig, ctx, ty, t) is None
    n = normalize_tm(sig, ctx, ty, t)
    assert erase(to_nf(sig, ctx, ty, n)) == n


# Each syntax class, and each grammar class through the class it erases to,
# with a variable in every term or type field: the hand-written shift and
# substitution must replace it in exactly the fields that BINDERS leaves it
# free in, return the other fields as they are, and uses_index must find it
# at the index it has there.
_FILL = {
    "Term": lambda j: Var(j),
    "Ty": lambda j: TyConst("C", (Var(j),)),
    "tuple[Term, ...]": lambda j: (Var(j),),
    "NeTm": lambda j: VarNe(j),
    "NfTm": lambda j: VarNe(j),
    "NfTy": lambda j: TyConstNf("C", (VarNe(j),)),
    "tuple[NfTm, ...]": lambda j: (VarNe(j),),
}
_SIGMA = (Lam(Var(0)), Lam(Zero()), Lam(Lam(Var(1))))  # closed, none inside another
_BINDING_CLASSES = [Pi, Nat, TyConst, Lam, App, Zero, Succ, NatInd, Const] + [
    cls for cls in _ERASES_TO if cls is not VarNe
]


@pytest.mark.parametrize("cls", _BINDING_CLASSES, ids=lambda cls: cls.__name__)
def test_binder_table_agrees_with_substitution(cls):
    syntax_cls = _ERASES_TO.get(cls, cls)
    fields = dataclasses.fields(cls)
    holds_var = [f.type in _FILL for f in fields]
    for j in range(3):  # Var(j) under b binders is free exactly when j >= b
        node = cls(*(_FILL[f.type](j) if f.type in _FILL else {"int": 1, "str": "C"}[f.type] for f in fields))
        t = erase(node) if syntax_cls is not cls else node
        assert t.__class__ is syntax_cls
        for moved, new in ((shift(t, 1), lambda b: Var(j + 1)), (subst_many(t, _SIGMA), lambda b: _SIGMA[j - b])):
            for name, var, b in zip(syntax_cls.__match_args__, holds_var, binders(syntax_cls)):
                got = getattr(moved, name)
                assert new(b) in walk(got) if var and j >= b else got is getattr(t, name)
        for i in range(3):
            assert uses_index(t, i) == any(var and j == i + b for var, b in zip(holds_var, binders(syntax_cls)))


# The differential test of the recognizer against tests/normal_reference.py:
# ``is_normal`` answers ``to_nf(...) is not None`` and ``_is_normal_ty``
# answers ``to_nf_ty(...) is not None`` on every case of a fixed corpus.

_HANDWRITTEN_SOURCE = CROSSVAL + ETA_SHORT + "postulate q : (u : Nat -> Nat) -> C (u zero)\n"


def _handwritten_cases(sig):
    """Hand-written terms at their types: eta-short terms, wrong arities,
    unknown constants and constants of the wrong kind, motives that are no
    types, and neutrals whose type agrees with the target only once reduced."""
    redex = App(Lam(Var(0)), Zero())
    u_ctx = Context((NN, Nat()))  # u : Nat -> Nat, v : Nat
    a_ctx = Context((TyConst("A"), Nat()))  # a : A, v : Nat
    aa_ctx = Context((TyConst("A"), TyConst("A")))  # a, a' : A
    n_ctx, ci = Context((Nat(),)), TyConst("C", (NatInd(Var(0), Nat(), Zero(), Var(0)),))
    hv, cv, fa = App(Const("h"), Var(0)), TyConst("C", (Var(0),)), App(Const("f"), Var(1))
    cases = [
        (u_ctx, NN, Var(1)),  # eta-short at a function type
        (u_ctx, NN, Lam(App(Var(2), Var(0)))),
        (u_ctx, Nat(), App(Var(1), Var(0))),
        (u_ctx, Nat(), App(Var(1), redex)),
        (u_ctx, Nat(), Var(2)),
        (Context((NN,)), TyConst("E", (Var(0),)), App(Const("e"), Var(0))),  # an eta-short type argument
        (Context((NN,)), TyConst("E", (Var(0),)), App(Const("e"), Lam(App(Var(1), Var(0))))),
        (Context((NN,)), TyConst("C", (App(Var(0), Zero()),)), App(Const("q"), Lam(App(Var(1), Var(0))))),
        (Context((NN,)), TyConst("C", (Zero(),)), App(Const("q"), Lam(App(Var(1), Var(0))))),
        (u_ctx, cv, hv),
        (u_ctx, TyConst("C", (redex,)), hv),  # agrees once reduced
        (u_ctx, TyConst("C", (Zero(),)), hv),
        (u_ctx, Nat(), hv),
        (u_ctx, cv, Var(0)),
        (u_ctx, cv, App(Const("h"), redex)),
        (u_ctx, cv, Const("h")),  # under- and over-applied
        (u_ctx, cv, App(App(Const("h"), Var(0)), Var(0))),
        (u_ctx, Nat(), App(Const("twice"), Var(0))),  # a definition, a type constant, no constant
        (u_ctx, Nat(), Const("A")),
        (u_ctx, Nat(), App(Const("nope"), Var(0))),
        (aa_ctx, TyConst("B", (Var(1),)), fa),
        (aa_ctx, TyConst("B", (Var(0),)), fa),
        (u_ctx, Nat(), NatInd(Var(0), Nat(), Zero(), Var(0))),
        (u_ctx, Nat(), NatInd(Var(0), Nat(), redex, Var(0))),
        (u_ctx, Nat(), NatInd(Var(0), Nat(), Zero(), App(Lam(Var(0)), Var(0)))),
        (u_ctx, Nat(), NatInd(Var(1), Nat(), Zero(), Var(0))),  # a scrutinee of function type
        (u_ctx, Nat(), NatInd(Zero(), Nat(), Zero(), Var(0))),  # an iota-redex
        (a_ctx, TyConst("A"), NatInd(Var(0), TyConst("A"), Var(1), Var(0))),
        (n_ctx, cv, NatInd(Var(0), cv, Const("c0"), Var(0))),
        (n_ctx, cv, NatInd(Var(0), cv, Const("c0"), Zero())),
        (n_ctx, ci, NatInd(Var(0), ci, Const("c0"), Var(0))),  # a motive whose iota-redex reduces
    ]
    for name in ("f", "twice", "nope", "C"):  # motives that are no types, or of the wrong arity
        cases.append((a_ctx, TyConst("A"), NatInd(Var(0), TyConst(name), Var(1), Var(0))))
    return cases


_HANDWRITTEN_TYPES = [
    (Context((TyConst("A"),)), TyConst("B", (Var(0),))),
    (Context((TyConst("A"),)), TyConst("B", (App(Lam(Var(0)), Var(0)),))),
    (Context((TyConst("A"),)), TyConst("B")),
    (Context(), Pi(TyConst("A"), TyConst("B", (Var(0),)))),
    (Context(), Pi(TyConst("B"), Nat())),
    (Context(), Pi(Nat(), TyConst("C", (App(Lam(Var(0)), Var(0)),)))),
] + [(Context(), TyConst(name)) for name in ("c0", "twice", "nope", "A")]


@pytest.fixture(scope="module")
def verdict_corpus(sig_crossval, sig_dep, sig_abf):
    """``(sig, ctx, ty, t)`` term cases and ``(sig, ctx, ty)`` type cases."""
    terms, types = [], []
    sigs = [sig_crossval, sig_dep, sig_abf] + [elaborate(parse(s)) for s in HIGHER_ORDER_SOURCES]
    for i, sig in enumerate(sigs):
        for ctx, ty, t in gen_cases(sig, i, 40, 8):
            terms += [(sig, ctx, ty, t), (sig, ctx, ty, normalize_tm(sig, ctx, ty, t))]
            types += [(sig, ctx, ty), (sig, ctx, normalize_ty(sig, ctx, ty))]
    for ctx, ty in PARTITION_TARGETS:
        terms += [(sig_crossval, ctx, ty, t) for t in enum_terms(sig_crossval, ctx, ty, 5)]
        types.append((sig_crossval, ctx, ty))
    sig = elaborate(parse(_HANDWRITTEN_SOURCE))
    terms += [(sig, ctx, ty, t) for ctx, ty, t in _handwritten_cases(sig)]
    types += [(sig, ctx, ty) for ctx, ty in _HANDWRITTEN_TYPES]
    return terms, types


def _disagreements(corpus):
    terms, types = corpus
    wrong = [c for c in terms if normal.is_normal(*c) != (normal_reference.to_nf(*c) is not None)]
    return wrong + [c for c in types if normal._is_normal_ty(*c) != (normal_reference.to_nf_ty(*c) is not None)]


def test_the_recognizer_agrees_with_the_reference(verdict_corpus):
    terms, _ = verdict_corpus
    assert _disagreements(verdict_corpus) == []
    # both verdicts occur often enough to tell a mutant apart
    accepted = sum(normal.is_normal(*c) for c in terms)
    assert 100 < accepted < len(terms) - 100, (accepted, len(terms))


def _ignores_last_argument(sig, ctx, params, args):
    if len(params) != len(args):
        return False
    kept = zip(params[:-1], args)  # the last argument goes unchecked
    return all(normal.is_normal(sig, ctx, inst_params(p, args[:i]), a) for i, (p, a) in enumerate(kept))


def _accepts_a_non_lambda_at_a_pi(is_normal_):
    def mutant(sig, ctx, ty, t):
        if isinstance(ty, Pi) and not isinstance(t, Lam):
            return normal._spine_type(sig, ctx, t) is not None
        return is_normal_(sig, ctx, ty, t)

    return mutant


def _skips_the_type_comparison(is_normal_):
    def mutant(sig, ctx, ty, t):
        if isinstance(ty, Pi) or isinstance(ty, Nat) and isinstance(t, (Zero, Succ)):
            return is_normal_(sig, ctx, ty, t)
        return normal._spine_type(sig, ctx, t) is not None

    return mutant


@pytest.mark.parametrize(
    ("name", "mutant"),
    [
        ("_normal_args", lambda _: _ignores_last_argument),
        ("is_normal", _accepts_a_non_lambda_at_a_pi),
        ("is_normal", _skips_the_type_comparison),
    ],
    ids=["ignores the last argument", "non-lambda at a Pi", "no type comparison"],
)
def test_the_verdict_corpus_tells_each_mutant_apart(verdict_corpus, monkeypatch, name, mutant):
    monkeypatch.setattr(normal, name, mutant(getattr(normal, name)))
    assert _disagreements(verdict_corpus)


def _deepest(accepts, limit=2_000):
    """The largest depth that ``accepts`` answers True at, rather than
    running out of stack: a binary search."""
    lo, hi = 0, limit
    while lo < hi:
        mid = (lo + hi + 1) // 2
        try:
            ok = accepts(mid)
        except RecursionError:
            ok = False
        lo, hi = (mid, hi) if ok else (lo, mid - 1)
    return lo


def _nested(depth, leaf, wrap):
    t = leaf
    for _ in range(depth):
        t = wrap(t)
    return t


@pytest.mark.parametrize(
    ("source", "ctx", "case"),
    [
        ("postulate s : Nat -> Nat", Context(), lambda d: (Nat(), _nested(d, Zero(), lambda t: App(Const("s"), t)))),
        ("", Context((NN, Nat())), lambda d: (Nat(), _nested(d, Var(0), lambda t: App(Var(1), t)))),
        ("", Context((Nat(),)), lambda d: (Nat(), _nested(d, Var(0), lambda t: NatInd(t, Nat(), Zero(), Var(0))))),
        ("", Context(), lambda d: (_nested(d, Nat(), lambda c: Pi(Nat(), c)), _nested(d, Var(0), Lam))),
    ],
    ids=["constant arguments", "variable arguments", "eliminator scrutinees", "lambdas at a Pi"],
)
def test_the_recognizer_accepts_nesting_as_deep_as_the_reference(source, ctx, case):
    # the predicates recurse with the reference's frames per level, so they
    # run out of stack no earlier
    sig = elaborate(parse(source))
    reference = _deepest(lambda d: to_nf(sig, ctx, *case(d)) is not None)
    assert reference > 150
    assert _deepest(lambda d: is_normal(sig, ctx, *case(d))) >= reference
