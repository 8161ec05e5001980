"""Bidirectional checking and conversion."""

import random

import pytest

from ttkernel.check import check, check_ty, conv_tm, conv_ty, infer
from ttkernel.errors import (
    ArityMismatch,
    CannotInfer,
    CheckError,
    Mismatch,
    MotiveMismatch,
    NotAFunction,
    UnboundVariable,
    UnknownConstant,
)
from ttkernel.gen import GenerationStuck, case_problem, gen_context, gen_term, gen_type
from ttkernel.rewrite import oracle_equal
from ttkernel.surface import print_case
from ttkernel.syntax import (
    App,
    Const,
    Context,
    Lam,
    Nat,
    NatInd,
    Pi,
    Succ,
    TmConst,
    TyConst,
    Var,
    Zero,
    succ,
)

NN = Pi(Nat(), Nat())
A = TyConst("A")


def test_package_attribute_check_is_the_module():
    import ttkernel.check

    assert ttkernel.check.infer is infer


def test_check_ty_nat(sig_empty):
    check_ty(sig_empty, Context(), Nat())


def test_check_ty_rejects_wrong_index(sig_abf):
    with pytest.raises(Mismatch):
        check_ty(sig_abf, Context(), TyConst("B", (Zero(),)))


def test_check_ty_constant_function_type(sig_abf):
    check_ty(sig_abf, Context(), Pi(A, TyConst("B", (Var(0),))))


def test_check_ty_arity(sig_abf):
    with pytest.raises(ArityMismatch):
        check_ty(sig_abf, Context(), TyConst("B", ()))


def test_check_ty_unknown(sig_empty, sig_walkthrough):
    with pytest.raises(UnknownConstant):
        check_ty(sig_empty, Context(), TyConst("A"))
    # a term constant, a definition and an unknown name, where a type constant belongs
    for name in ("f", "add", "nope"):
        with pytest.raises(UnknownConstant, match=f"^'{name}' is not a type constant$") as e:
            check_ty(sig_walkthrough, Context(), TyConst(name))
        assert (e.value.line, e.value.col) == (None, None)


def test_infer_names_no_term_constant(sig_walkthrough):
    # a type constant, a definition (a Const head, never a TmConst) and an
    # unknown name, where a term constant belongs
    for name in ("A", "add", "nope"):
        with pytest.raises(UnknownConstant, match=f"^'{name}' is not a term constant$") as e:
            infer(sig_walkthrough, Context(), TmConst(name))
        assert (e.value.line, e.value.col) == (None, None)


def test_infer_a_constant_as_a_function(sig_walkthrough):
    # a definition has its declared type, a term constant the Pi type over
    # its parameters, and an application of either one the instance
    sig = sig_walkthrough
    nnn = Pi(Nat(), Pi(Nat(), Nat()))
    assert infer(sig, Context(), Const("mul")) == nnn
    assert infer(sig, Context(), App(Const("add"), Zero())) == Pi(Nat(), Nat())
    assert infer(sig, Context(), Const("f")) == Pi(A, TyConst("B", (Var(0),)))
    assert infer(sig, Context((A,)), App(Const("f"), Var(0))) == TyConst("B", (Var(0),))
    with pytest.raises(Mismatch):  # its arguments are checked against its parameters
        infer(sig, Context(), App(Const("f"), Zero()))
    # a type constant and an unknown name are neither
    for name in ("A", "nope"):
        with pytest.raises(UnknownConstant, match=f"^'{name}' is neither a definition nor a term constant$"):
            infer(sig, Context(), Const(name))


def test_infer_zero(sig_empty):
    assert infer(sig_empty, Context(), Zero()) == Nat()


def test_infer_eliminator(sig_empty):
    t = NatInd(Var(0), Nat(), Zero(), Succ(1, Var(0)))
    assert infer(sig_empty, Context((Nat(),)), t) == Nat()


def test_infer_lambda_fails(sig_empty):
    with pytest.raises(CannotInfer):
        infer(sig_empty, Context(), Lam(Var(0)))


def test_infer_unbound(sig_empty):
    with pytest.raises(UnboundVariable):
        infer(sig_empty, Context(), Var(0))


def test_infer_not_a_function(sig_empty):
    with pytest.raises(NotAFunction):
        infer(sig_empty, Context(), App(Zero(), Zero()))


def test_infer_motive_mismatch(sig_empty):
    bad = NatInd(Zero(), Nat(), Lam(Var(0)), Var(0))
    with pytest.raises(MotiveMismatch):
        infer(sig_empty, Context(), bad)


def test_infer_constant_arity(sig_abf):
    with pytest.raises(ArityMismatch):
        infer(sig_abf, Context(), TmConst("f", ()))


def test_infer_beta_redex(sig_abf):
    assert infer(sig_abf, Context(), App(Lam(Var(0)), Zero())) == Nat()
    # the body's type may mention the bound variable: the argument replaces it
    t = App(Lam(TmConst("f", (Var(0),))), Var(0))
    assert infer(sig_abf, Context((A,)), t) == TyConst("B", (Var(0),))
    with pytest.raises(CannotInfer):  # the argument must infer
        infer(sig_abf, Context(), App(Lam(Var(0)), Lam(Var(0))))


def test_check_lambda(sig_empty):
    check(sig_empty, Context(), Lam(Var(0)), NN)


def test_check_mismatch(sig_empty):
    with pytest.raises(Mismatch):
        check(sig_empty, Context(), Succ(1, Zero()), NN)
    with pytest.raises(Mismatch):
        check(sig_empty, Context(), Lam(Var(0)), Nat())


def test_check_sees_through_redex_in_expected_type(sig_abf):
    ctx = Context((A,))
    check(sig_abf, ctx, TmConst("f", (Var(0),)), TyConst("B", (App(Lam(Var(0)), Var(0)),)))


def test_conv_beta(sig_empty):
    assert conv_tm(sig_empty, Context(), Nat(), App(Lam(Var(0)), Zero()), Zero())


def test_conv_eta(sig_empty):
    ctx = Context((NN,))
    assert conv_tm(sig_empty, ctx, NN, Var(0), Lam(App(Var(1), Var(0))))


def test_conv_distinguishes_numerals(sig_empty):
    assert not conv_tm(sig_empty, Context(), Nat(), Zero(), Succ(1, Zero()))


def test_conv_ty_through_index_redex(sig_abf):
    ctx = Context((A,))
    assert conv_ty(
        sig_abf, ctx, TyConst("B", (Var(0),)), TyConst("B", (App(Lam(Var(0)), Var(0)),))
    )
    assert not conv_ty(sig_abf, Context((A, A)), TyConst("B", (Var(0),)), TyConst("B", (Var(1),)))


def _cases(sig, count, seed, size=8):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        ctx = gen_context(sig, rng, max_len=2, size=4)
        ty = gen_type(sig, ctx, rng, size=4)
        try:
            t = gen_term(sig, ctx, ty, size, rng)
            u = gen_term(sig, ctx, ty, size, rng)
        except GenerationStuck:
            continue
        out.append((ctx, ty, t, u))
    return out


def test_conv_is_equivalence_and_congruence(sig_abf):
    for ctx, ty, t, u in _cases(sig_abf, 60, seed=1):
        assert conv_tm(sig_abf, ctx, ty, t, t)
        assert conv_tm(sig_abf, ctx, ty, t, u) == conv_tm(sig_abf, ctx, ty, u, t)
        # congruence under the successor and under abstraction
        if ty == Nat():
            assert conv_tm(sig_abf, ctx, ty, t, u) == conv_tm(
                sig_abf, ctx, ty, succ(1, t), succ(1, u)
            )


def test_conv_agrees_with_oracle(sig_abf):
    for ctx, ty, t, u in _cases(sig_abf, 80, seed=2):
        assert conv_tm(sig_abf, ctx, ty, t, u) == oracle_equal(sig_abf, ctx, ty, t, u)


def test_subject_reduction_through_normal_form(sig_abf):
    for ctx, ty, t, _ in _cases(sig_abf, 60, seed=3):
        assert case_problem(sig_abf, ctx, ty, t) is None, print_case(ctx, ty, t)


def test_checker_error_carries_normal_forms(sig_empty):
    try:
        check(sig_empty, Context(), Succ(1, Zero()), NN)
    except Mismatch as e:
        assert e.expected_nf is not None and e.actual_nf is not None
        assert "Nat -> Nat" in str(e)
    else:
        raise AssertionError("expected a Mismatch")
    with pytest.raises(MotiveMismatch) as info:
        infer(sig_empty, Context((NN,)), NatInd(Zero(), Nat(), Var(0), Zero()))
    assert isinstance(info.value.__cause__, Mismatch)
    assert str(info.value) == "zero case does not match the motive: expected Nat, got Nat -> Nat"


def test_check_rejects_ill_typed_constant_argument(sig_abf):
    with pytest.raises(CheckError):
        infer(sig_abf, Context(), TmConst("f", (Zero(),)))
