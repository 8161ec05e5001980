"""A numeral is one node: a successor chain is ``Succ(k, base)``, in syntax
and in values alike, with ``k >= 1`` and a base of another class, and
``syntax.succ`` builds every chain."""

import pytest

from ttkernel.check import conv_tm, infer
from ttkernel.gen import enum_terms, gen_cases
from ttkernel.nbe import eval_tm, eval_ty, id_env, normalize_tm, reify
from ttkernel.normal import is_normal
from ttkernel.rewrite import DEFAULT_FUEL, _Fuel, _reduce, rw_normalize
from ttkernel.surface import context_names, elab_tm, parse_expression, print_nf, print_tm
from ttkernel.signature import Signature
from ttkernel.syntax import (
    App,
    Context,
    Lam,
    Nat,
    Pi,
    Succ,
    TyConst,
    Var,
    Zero,
    node_count,
    numeral,
    shift,
    subst_many,
    succ,
    walk,
)

from enum_reference import PARTITION_TARGETS
from step_reference import step

HUGE = 10**9


def assert_one_node_form(x):
    """Every successor node in ``x`` has ``k >= 1`` and a base of another class."""
    for y in walk(x):
        if y.__class__ is Succ:
            assert y.k.__class__ is int and y.k >= 1, y
            assert y.base.__class__ is not y.__class__, y
    return x


def test_succ_builds_one_node():
    assert numeral(0) == Zero()
    assert numeral(3) == Succ(3, Zero())
    assert node_count(numeral(5)) == 6
    assert succ(2, Succ(3, Var(0))) == Succ(5, Var(0))
    assert succ(1, Succ(2, Zero())) == Succ(3, Zero())
    base = Var(0)
    assert succ(0, base) is base


def test_a_base_that_becomes_a_successor_merges():
    sig = Signature()
    assert subst_many(Succ(2, Var(0)), (numeral(3),)) == Succ(5, Zero())
    assert eval_tm(sig, (Succ(3, Zero()),), Succ(2, Var(0))) == Succ(5, Zero())
    t = Succ(2, App(Lam(Succ(1, Var(0))), numeral(3)))  # the base reduces to a successor
    assert step(sig, t) == _reduce(t, _Fuel(1)) == Succ(6, Zero())


@pytest.fixture(scope="module")
def corpus(sig_crossval, sig_dep, sig_abf):
    """``(sig, ctx, ty, t)``: generated cases over three signatures and every
    term up to size 6 at the partition targets and at ``Nat``."""
    out = []
    for sig in (sig_crossval, sig_dep, sig_abf):
        out += [(sig, *case) for case in gen_cases(sig, 5, 60, 9)]
        for ctx in (Context(), Context((Nat(),))):
            out += [(sig, ctx, Nat(), t) for t in enum_terms(sig, ctx, Nat(), 6)]
    for ctx, ty in PARTITION_TARGETS:
        out += [(sig_crossval, ctx, ty, t) for t in enum_terms(sig_crossval, ctx, ty, 6)]
    for sig, ctx, ty in (
        (sig_dep, Context((Nat(),)), TyConst("C", (Var(0),))),
        (sig_abf, Context((TyConst("A"),)), TyConst("B", (Var(0),))),
    ):
        out += [(sig, ctx, ty, t) for t in enum_terms(sig, ctx, ty, 6)]
    return out


SIGMAS = ((numeral(2),), (Succ(1, Var(0)), Var(1)), (Lam(Var(1)), Zero()))


def test_every_layer_keeps_the_form(corpus):
    for sig, ctx, ty, t in corpus:
        assert_one_node_form((ctx, ty, t))
        names = context_names(len(ctx))
        assert_one_node_form(elab_tm(sig, names, parse_expression(print_tm(t, names))))
        env = id_env(sig, ctx)
        v = assert_one_node_form(eval_tm(sig, env, t))
        assert_one_node_form(reify(sig, len(ctx), eval_ty(sig, env, ty), v))
        for by in (1, 2):
            assert_one_node_form(shift(t, by))
        for sigma in SIGMAS:
            assert_one_node_form(subst_many(t, sigma))
        assert_one_node_form(_reduce(t, _Fuel(DEFAULT_FUEL)))
        assert_one_node_form(rw_normalize(sig, ctx, ty, t))
        u = t
        while (u := step(sig, u)) is not None:
            assert_one_node_form(u)


@pytest.mark.parametrize(
    "text", ["succ (succ 3)", "add 2 (succ (succ 1))", "mul 3 (succ 2)", "\\x. succ (add x 2)"]
)
def test_elaborated_and_normal_numerals_keep_the_form(sig_walkthrough, text):
    sig = sig_walkthrough
    t = assert_one_node_form(elab_tm(sig, (), parse_expression(text)))
    ty = Pi(Nat(), Nat()) if text.startswith("\\") else Nat()
    assert_one_node_form(normalize_tm(sig, Context(), ty, t))
    assert_one_node_form(rw_normalize(sig, Context(), ty, t))


def test_huge_numeral_builds_hashes_prints_and_normalizes(sig_walkthrough):
    sig, ctx = sig_walkthrough, Context()
    t = numeral(HUGE)
    assert t == Succ(HUGE, Zero()) and hash(t) == hash(numeral(HUGE))
    assert print_tm(t) == str(HUGE) and node_count(t) == HUGE + 1
    assert infer(sig, ctx, t) == Nat() and is_normal(sig, ctx, Nat(), t)
    nf = normalize_tm(sig, ctx, Nat(), t)
    assert nf == Succ(HUGE, Zero()) and print_nf(nf) == str(HUGE)
    assert rw_normalize(sig, ctx, Nat(), t) == t
    assert conv_tm(sig, ctx, Nat(), t, numeral(HUGE))
    assert not conv_tm(sig, ctx, Nat(), t, numeral(HUGE + 1))
    # add recurses on its first argument, so this unfolds three successor cases
    s = elab_tm(sig, (), parse_expression(f"add 3 {HUGE}"))
    assert normalize_tm(sig, ctx, Nat(), s) == Succ(HUGE + 3, Zero())
    assert rw_normalize(sig, ctx, Nat(), s) == numeral(HUGE + 3)
