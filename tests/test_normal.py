"""Normal-form trees: erasure, the recognition predicate."""

import dataclasses

import pytest

from ttkernel import normal, rewrite
from ttkernel.gen import case_problem, gen_cases
from ttkernel.nbe import normalize_tm, normalize_ty
from ttkernel.normal import (
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
    _ERASES_TO,
    erase,
    is_normal,
    to_nf,
    to_nf_ty,
)
from ttkernel.surface import elaborate, parse
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
    binders,
    numeral,
    shift,
)

from conftest import CROSSVAL

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
    # a constant's argument, and a constant that names a definition
    c = TyConst("C", (Var(0),))
    assert is_normal(sig_crossval, ctx, c, TmConst("h", (Var(0),)))
    assert not is_normal(sig_crossval, ctx, c, TmConst("h", (App(Lam(Var(0)), Var(0)),)))
    assert not is_normal(sig_crossval, ctx, Nat(), TmConst("twice", (Var(0),)))
    # a type constant's name and an unknown name are no term constants either
    assert not is_normal(sig_crossval, ctx, Nat(), TmConst("A"))
    assert not is_normal(sig_crossval, ctx, Nat(), TmConst("nope", (Var(0),)))
    # a neutral at a base type: its spine's type against the given one, up to
    # the oracle's normal form at a type constant
    hv = TmConst("h", (Var(0),))
    ctx_a = Context((TyConst("A"), TyConst("A")))  # a, a' : A
    fa = TmConst("f", (Var(1),))
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
    assert to_nf_ty(sig_abf, ctx, TyConst("B", (Var(0),))) is not None
    assert to_nf_ty(sig_abf, ctx, TyConst("B", (App(Lam(Var(0)), Var(0)),))) is None
    # a term constant, a definition and an unknown name are no type constants
    for name in ("c0", "twice", "nope"):
        assert to_nf_ty(sig_crossval, ctx, TyConst(name)) is None


def test_roundtrip_unique_reconstruction(sig_abf):
    # the tree rebuilt from an erased normal form is the original tree
    for ctx, ty, t in gen_cases(sig_abf, 11, 100, 8):
        n = normalize_tm(sig_abf, ctx, ty, t)
        back = erase(normalize_ty(sig_abf, ctx, ty))
        assert to_nf(sig_abf, ctx, back, erase(n)) == n
        assert to_nf_ty(sig_abf, ctx, back) == normalize_ty(sig_abf, ctx, ty)


def test_erase_injective_small(sig_empty):
    # exhaustively: distinct normal trees at a fixed type erase differently
    from ttkernel.gen import enum_terms

    ctx = Context((Nat(),))
    seen = {}
    for t in enum_terms(sig_empty, ctx, Nat(), 5):
        n = normalize_tm(sig_empty, ctx, Nat(), t)
        e = erase(n)
        assert seen.setdefault(e, n) == n


def test_numeral_roundtrip(sig_empty):
    n = normalize_tm(sig_empty, Context(), Nat(), numeral(4))
    assert n == SuccNf(4, ZeroNf())
    assert to_nf(sig_empty, Context(), Nat(), numeral(4)) == n


def test_fun_nf_shape(sig_empty):
    assert to_nf_ty(sig_empty, Context(), NN) == FunNf(NatNf(), NatNf())


def test_is_normal_reduces_the_types_it_computes_by_substitution():
    sig = elaborate(parse("postulate C (n : Nat)\npostulate c0 : C zero\n"
                          "postulate q : (u : Nat -> Nat) -> C (u zero)"))
    # q's result C (u zero) at the eta-long u = \x. v0 x is C ((\x. v0 x) zero)
    ctx = Context((NN,))
    ty = TyConst("C", (App(Var(0), Zero()),))
    t = TmConst("q", (Lam(App(Var(1), Var(0))),))
    assert erase(normalize_tm(sig, ctx, ty, TmConst("q", (Var(0),)))) == t
    assert is_normal(sig, ctx, ty, t)
    # the motive C (ind(x; _. Nat; zero; p r. r)) at zero and at succ p has
    # an iota-redex in its argument: C zero and C (ind(p; ...)) once reduced
    ctx = Context((Nat(),))
    motive = TyConst("C", (NatInd(Var(0), Nat(), Zero(), Var(0)),))
    t = NatInd(Var(0), motive, TmConst("c0"), Var(0))
    ty = TyConst("C", (NatInd(Var(0), Nat(), Zero(), Var(0)),))
    assert erase(normalize_tm(sig, ctx, ty, t)) == t
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
    assert is_normal(sig, ctx, ty, TmConst("q", (Lam(App(Var(1), Var(0))),)))
    assert spent == {"oracle": 0, "recognizer": 1}


# ind(zero; _. Nat; zero; p r. r): an iota-redex, reducing to zero
I = NatInd(Zero(), Nat(), Zero(), Var(0))


# a type argument at a function type: e v is normal as e (\x. v x) at E v
ETA_SHORT = "postulate E (u : Nat -> Nat)\npostulate e : (w : Nat -> Nat) -> E w\n"


@pytest.mark.parametrize(
    ("source", "ctx", "ty", "t"),
    [
        (CROSSVAL, Context(), TyConst("C", (I,)), TmConst("h", (I,))),
        (CROSSVAL, Context((TyConst("C", (I,)),)), TyConst("C", (I,)), Var(0)),
        (ETA_SHORT, Context((NN,)), TyConst("E", (Var(0),)), TmConst("e", (Var(0),))),
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
    assert to_nf(sig, ctx, ty, erase(n)) == n


# Each syntax class, and each grammar class through the class it erases to,
# with a variable in every term or type field: the hand-written shift must
# move exactly the fields that BINDERS leaves it free in.
_FILL = {
    "Term": lambda j: Var(j),
    "Ty": lambda j: TyConst("C", (Var(j),)),
    "tuple[Term, ...]": lambda j: (Var(j),),
    "NeTm": lambda j: VarNe(j),
    "NfTm": lambda j: VarNe(j),
    "NfTy": lambda j: TyConstNf("C", (VarNe(j),)),
    "tuple[NfTm, ...]": lambda j: (VarNe(j),),
}
_BINDING_CLASSES = [Pi, Nat, TyConst, Lam, App, Zero, Succ, NatInd, TmConst] + [
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
        moved = shift(t, 1)
        got = [getattr(moved, name) != getattr(t, name) for name in syntax_cls.__match_args__]
        assert got == [var and j >= b for var, b in zip(holds_var, binders(syntax_cls))]
