"""The rewriting oracle: stepping, normalization, equality."""

import ast
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttkernel import normal, rewrite
from ttkernel.check import check
from ttkernel.errors import FuelExhausted
from ttkernel.gen import GenerationStuck, enum_terms, gen_cases, gen_context, gen_term, gen_type
from ttkernel.nbe import normalize_tm
from ttkernel.normal import is_normal
from ttkernel.rewrite import _reduce, oracle_equal, rw_normalize, unfold
from ttkernel.surface import elab_tm, elab_ty, elaborate, parse, parse_expression, parse_type
from ttkernel.syntax import (
    App,
    Const,
    Context,
    Lam,
    Nat,
    NatInd,
    Pi,
    Succ,
    TyConst,
    Var,
    Zero,
    const_names,
    numeral,
    shift,
)

import step_reference
from enum_reference import PARTITION_TARGETS
from normal_reference import ZeroNf
from step_reference import step

NN = Pi(Nat(), Nat())

ARITH = r"""
def add : Nat -> Nat -> Nat := \m. \n. ind(m; _. Nat; n; p r. succ r)
def mul : Nat -> Nat -> Nat := \m. \n. ind(m; _. Nat; zero; p r. add n r)
def exp : Nat -> Nat -> Nat := \b. \e. ind(e; _. Nat; 1; p r. mul b r)
"""


@pytest.fixture(scope="module")
def sig_arith():
    return elaborate(parse(ARITH))


class CountingFuel(rewrite._Fuel):
    def __init__(self, amount: int):
        super().__init__(amount)
        self.spent = 0

    def spend(self):
        self.spent += 1
        super().spend()


def iterate_step(sig, t):
    """The specification: contract with ``step`` until none applies."""
    count = 0
    while (u := step(sig, t)) is not None:
        t, count = u, count + 1
    return t, count


def substitutions(run):
    """``run()`` and the substitutions it made through the oracle: one per
    beta or successor-iota contraction, so their order is the redexes'."""
    log = []

    def logged(fn):
        def wrapper(*args):
            log.append(args)
            return fn(*args)

        return wrapper

    modules = (rewrite, step_reference)
    saved = [(m.subst1, m.subst_many) for m in modules]
    for m, (s1, sm) in zip(modules, saved):
        m.subst1, m.subst_many = logged(s1), logged(sm)
    try:
        return run(), log
    finally:
        for m, (s1, sm) in zip(modules, saved):
            m.subst1, m.subst_many = s1, sm


def assert_reduce_is_iterated_step(sig, t):
    tank = CountingFuel(10**6)
    got, order = substitutions(lambda: _reduce(t, tank))
    (want, count), want_order = substitutions(lambda: iterate_step(sig, t))
    assert got == want
    assert tank.spent == count
    assert order == want_order


def test_step_beta(sig_empty):
    assert step(sig_empty, App(Lam(Var(0)), Zero())) == Zero()


def test_step_ind_zero(sig_empty):
    t = NatInd(Zero(), Nat(), Succ(1, Zero()), Succ(1, Var(0)))
    assert step(sig_empty, t) == Succ(1, Zero())


def test_step_ind_succ(sig_empty):
    t = NatInd(Succ(1, Zero()), Nat(), Zero(), Succ(1, Var(0)))
    rec = NatInd(Zero(), Nat(), Zero(), Succ(1, Var(0)))
    assert step(sig_empty, t) == Succ(1, rec)


def test_step_is_leftmost_outermost(sig_empty):
    inner = App(Lam(Var(0)), Zero())
    t = App(Lam(Var(0)), inner)
    assert step(sig_empty, t) == inner  # the root redex fires first
    two = App(inner, inner)
    assert step(sig_empty, two) == App(Zero(), inner)  # then left before right


def test_step_none_on_normal(sig_empty):
    assert step(sig_empty, Lam(Var(0))) is None
    assert step(sig_empty, numeral(3)) is None


def test_rw_normalize_counts_three_steps(sig_empty):
    # 2 + 1 via the eliminator: two successor steps and one zero step
    t = NatInd(numeral(2), Nat(), numeral(1), Succ(1, Var(0)))
    seen = 0
    u = t
    while (v := step(sig_empty, u)) is not None:
        u = v
        seen += 1
    assert seen == 3
    assert u == numeral(3)
    assert rw_normalize(sig_empty, Context(), Nat(), t) == numeral(3)


def test_rw_normalize_pure_eta(sig_empty):
    ctx = Context((NN,))
    assert rw_normalize(sig_empty, ctx, NN, Var(0)) == Lam(App(Var(1), Var(0)))


def test_rw_normalize_fixed_point(sig_empty):
    assert rw_normalize(sig_empty, Context(), Nat(), Zero()) == Zero()


def test_rw_normalize_eta_under_nested_functions(sig_empty):
    ctx = Context((Pi(NN, Nat()),))
    got = rw_normalize(sig_empty, ctx, Pi(NN, Nat()), Var(0))
    # \g. x0 (\y. g y): both the outer variable and its argument eta-expand
    assert got == Lam(App(Var(1), Lam(App(Var(1), Var(0)))))


def test_oracle_equal_basics(sig_empty):
    assert oracle_equal(sig_empty, Context(), Nat(), Zero(), App(Lam(Var(0)), Zero()))
    assert not oracle_equal(sig_empty, Context(), Nat(), Zero(), Succ(1, Zero()))
    ctx = Context((NN,))
    assert oracle_equal(sig_empty, ctx, NN, Var(0), Lam(App(Var(1), Var(0))))


def test_output_is_normal_and_well_typed(sig_abf):
    for ctx, ty, t in gen_cases(sig_abf, 4, 100, 9):
        out = rw_normalize(sig_abf, ctx, ty, t)
        assert is_normal(sig_abf, ctx, ty, out)
        check(sig_abf, ctx, out, ty)
        # determinism: a second run returns the same term
        assert rw_normalize(sig_abf, ctx, ty, t) == out


def test_fuel_exhaustion_signals(sig_empty):
    with pytest.raises(FuelExhausted):
        rw_normalize(sig_empty, Context(), Nat(), NatInd(numeral(9), Nat(), Zero(), Var(0)), fuel=2)


def test_eta_pass_spends_no_fuel_on_types():
    # w's type C (v zero), and q's second parameter at u := \x. v x, which is
    # C ((\x. v x) zero), hold redexes; the eta pass reads neither argument
    sig = elaborate(parse("postulate C (n : Nat)\npostulate q : (u : Nat -> Nat) -> C (u zero) -> Nat\n"))
    ctx = Context((NN, TyConst("C", (App(Var(0), Zero()),))))
    t = elab_tm(sig, ("v", "w"), parse_expression("q (\\x. v x) w"))
    assert rw_normalize(sig, ctx, Nat(), t, fuel=0) == t


def test_dependent_eliminator_oracle(sig_dep):
    C = TyConst("C", (Var(0),))
    t = NatInd(numeral(2), C, Const("c0"), App(Const("h"), Succ(1, Var(1))))
    got = rw_normalize(sig_dep, Context(), TyConst("C", (numeral(2),)), t)
    assert got == App(Const("h"), numeral(2))


def test_eliminator_at_a_function_type(sig_empty):
    # a neutral eliminator whose motive is a function type: the oracle
    # eta-expands it and steps inside the motive, and agrees with NbE
    ctx, ty = Context((Nat(),)), NN
    t = elab_tm(sig_empty, ("v",), parse_expression("ind(v; _. Nat -> Nat; \\x. x; p r. \\x. succ (r x))"))
    out = rw_normalize(sig_empty, ctx, ty, t)
    assert out == Lam(App(shift(t, 1), Var(0)))
    assert out == normalize_tm(sig_empty, ctx, ty, t)
    assert_reduce_is_iterated_step(sig_empty, t)
    assert_reduce_is_iterated_step(sig_empty, App(t, App(Lam(Var(0)), Zero())))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10**6), size=st.integers(1, 12))
def test_reduce_is_iterated_step_on_generated_terms(sig_crossval, seed, size):
    rng = random.Random(seed)
    ctx = gen_context(sig_crossval, rng, max_len=3, size=4)
    ty = gen_type(sig_crossval, ctx, rng, size=4)
    try:
        t = gen_term(sig_crossval, ctx, ty, size, rng)
    except GenerationStuck:
        return
    assert_reduce_is_iterated_step(sig_crossval, t)


def test_reduce_is_iterated_step_on_enumerated_terms(sig_crossval):
    terms = [t for ctx, ty in PARTITION_TARGETS for t in enum_terms(sig_crossval, ctx, ty, 5)]
    assert len(terms) == 90
    for t in terms:
        assert_reduce_is_iterated_step(sig_crossval, t)
    # the corpus is not all normal: 62 contractions over the 90 terms
    assert sum(iterate_step(sig_crossval, t)[1] for t in terms) == 62


@pytest.mark.parametrize(
    "text",
    [
        "add 3 4",
        "mul 4 3",
        "exp 2 3",
        "(\\x. mul x x) (add 1 2)",
        "g (add 1 1) (mul 2 2)",
        "\\y. ind(g y y; _. Nat; add 1 1; p r. (\\z. add z p) r)",
    ],
)
def test_reduce_is_iterated_step_on_arithmetic(sig_arith, text):
    t = elab_tm(sig_arith, ("g",), parse_expression(text))
    assert_reduce_is_iterated_step(sig_arith, unfold(sig_arith, t))


@pytest.fixture()
def tanks(monkeypatch):
    """The fuel tanks ``rw_normalize`` creates, each a ``CountingFuel``."""
    made = []

    def counting(amount):
        made.append(CountingFuel(amount))
        return made[-1]

    monkeypatch.setattr(rewrite, "_Fuel", counting)
    return made


@pytest.mark.parametrize(("text", "steps"), [("mul 10 10", 121), ("exp 2 8", 3834)])
def test_rw_normalize_pinned_step_counts(sig_arith, tanks, text, steps):
    t = elab_tm(sig_arith, (), parse_expression(text))
    rw_normalize(sig_arith, Context(), Nat(), t)
    assert [tank.spent for tank in tanks] == [steps]


def test_fuel_exhausted_exactly_below_needed_steps(sig_arith, tanks):
    ctx = Context((NN,))
    t = elab_tm(sig_arith, ("g",), parse_expression("\\x. g (mul 2 (add x 1))"))
    rw_normalize(sig_arith, ctx, NN, t)
    needed = tanks[0].spent
    assert needed > 0
    for k in range(needed + 2):
        if k < needed:
            with pytest.raises(FuelExhausted):
                rw_normalize(sig_arith, ctx, NN, t, fuel=k)
        else:
            rw_normalize(sig_arith, ctx, NN, t, fuel=k)


def test_reduce_shares_what_does_not_reduce():
    tank = CountingFuel(100)
    normal = Lam(App(Var(0), NatInd(Var(1), Nat(), Zero(), Succ(1, Var(0)))))
    assert _reduce(normal, tank) is normal
    redex = App(Lam(Var(0)), Zero())
    got = _reduce(App(App(Var(0), normal), redex), tank)
    assert got == App(App(Var(0), normal), Zero())
    assert got.fn.arg is normal
    assert tank.spent == 1


def test_eta_pass_returns_eta_long_terms_as_they_are():
    # an eta-long spine, eliminator and constant argument come back as the
    # same objects, so comparing them afterwards stops at ``is``
    sig = elaborate(parse("postulate C (n : Nat)\npostulate k : (u : Nat -> Nat) -> Nat\n"))
    ctx = Context((Pi(NN, Nat()), Nat(), NN))
    names = ("g", "x", "v")
    text = "\\y. ind(x; _. Nat; g (\\z. succ z); p r. k (\\z. succ r))"
    t = elab_tm(sig, names, parse_expression(text))
    assert rw_normalize(sig, ctx, NN, t) is t
    ty = elab_ty(sig, names, parse_type("C (g (\\z. k (\\w. z)))"))
    assert rewrite._eta_ty(sig, ctx.entries, ty) is ty
    # an eta-short argument is expanded; its eta-long sibling is kept as it is
    short = elab_tm(sig, names, parse_expression("g (\\z. k v)"))
    long = elab_tm(sig, names, parse_expression("g (\\z. k (\\w. v w))"))
    assert rw_normalize(sig, ctx, Nat(), short) == long
    pair = elab_ty(sig, names, parse_type("C (k v) -> C (g (\\z. z))"))
    got = rewrite._eta_ty(sig, ctx.entries, pair)
    assert got.dom == elab_ty(sig, names, parse_type("C (k (\\w. v w))")) and got.cod is pair.cod


def test_reduce_stack_follows_nesting_not_steps(sig_arith):
    # 900 successors come out of 1,000+ contractions, each iota step heading
    # a new successor; recursing into those heads needs a frame per successor
    t = unfold(sig_arith, elab_tm(sig_arith, (), parse_expression("mul 30 30")))
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        out = _reduce(t, CountingFuel(10**6))
    finally:
        sys.setrecursionlimit(limit)
    assert out == Succ(900, Zero())


# A definition whose body is a numeral, one that is a lambda, and a type
# and a term constant to hold them as arguments.
UNFOLDING = r"""
def two : Nat := 2
def idn : Nat -> Nat := \n. n
postulate C (n : Nat)
postulate h : (n : Nat) -> C n
"""

TWO, IDN = Const("two"), Const("idn")


@pytest.fixture(scope="module")
def sig_unfolding():
    return elaborate(parse(UNFOLDING))


@pytest.mark.parametrize(
    ("t", "want"),
    [
        (Lam(TWO), Lam(numeral(2))),
        (Succ(3, TWO), Succ(5, Zero())),  # the base unfolds to a numeral: one chain
        (App(App(Const("h"), Var(0)), TWO), App(App(Const("h"), Var(0)), numeral(2))),
        (
            NatInd(
                TWO,
                Pi(TyConst("C", (TWO,)), TyConst("C", (App(IDN, Var(1)),))),
                App(IDN, Zero()),
                Lam(App(IDN, Var(0))),
            ),
            NatInd(numeral(2), Pi(TyConst("C", (numeral(2),)), TyConst("C", (Var(1),))), Zero(), Lam(Var(0))),
        ),
        (App(App(Var(0), TWO), Zero()), App(App(Var(0), numeral(2)), Zero())),  # a variable head
        (App(Lam(Var(0)), App(IDN, TWO)), App(Lam(Var(0)), numeral(2))),  # a lambda head
    ],
    ids=["lambda body", "successor base", "constant arguments", "eliminator parts", "variable head", "lambda head"],
)
def test_unfold_reaches_a_constant_under_every_former(sig_unfolding, t, want):
    got = unfold(sig_unfolding, t)
    assert got == want
    assert not {"two", "idn"} & set(const_names(got))  # a postulate's head stays
    assert got.__class__ is not Succ or got.base.__class__ is not Succ


@pytest.mark.parametrize(
    "t",
    [
        Var(0),
        Zero(),
        Succ(2, Var(0)),
        Lam(App(Var(0), Zero())),
        App(Const("h"), Var(0)),
        NatInd(Var(0), Pi(TyConst("C", (Var(0),)), Nat()), Zero(), Var(1)),
        Nat(),
        TyConst("C", (Succ(1, Var(0)),)),
    ],
    ids=["Var", "Zero", "Succ", "Lam and App", "postulate head", "NatInd and Pi", "Nat", "TyConst"],
)
def test_unfold_returns_what_names_no_constant_as_it_is(sig_unfolding, t):
    assert unfold(sig_unfolding, t) is t


def test_unfold_keeps_the_subtrees_in_which_nothing_unfolds(sig_unfolding):
    free = Lam(App(Var(0), App(Const("h"), Var(1))))
    got = unfold(sig_unfolding, App(App(free, TWO), free))
    assert got == App(App(free, numeral(2)), free)
    assert got.fn.fn is free and got.arg is free


def test_unfold_leaves_a_term_naming_only_postulates_as_it_is(sig_unfolding):
    # a postulate has no body: its head stays, and nothing around it is rebuilt
    h = Const("h")
    t = Lam(NatInd(Var(0), TyConst("C", (Var(0),)), App(h, Zero()), App(h, Succ(1, Var(1)))))
    assert unfold(sig_unfolding, t) is t
    # nor where the walk unfolds a definition next to it
    assert unfold(sig_unfolding, App(IDN, t)) is t


def test_a_postulate_costs_the_oracle_no_step(sig_dep):
    # (\g. g zero) h is one beta step: h is a head, not an eta-expansion to reduce
    t = App(Lam(App(Var(0), Zero())), Const("h"))
    want = App(Const("h"), Zero())
    assert rw_normalize(sig_dep, Context(), TyConst("C", (Zero(),)), t, fuel=1) == want
    with pytest.raises(FuelExhausted):
        rw_normalize(sig_dep, Context(), TyConst("C", (Zero(),)), t, fuel=0)


def test_unfold_rejects_what_is_no_term(sig_unfolding):
    # a tree of the reference's normal-form grammar is no syntax: the scan
    # rejects it wherever it sits
    for t in (ZeroNf(), App(Var(0), ZeroNf()), App(TWO, ZeroNf())):
        with pytest.raises(AssertionError):
            unfold(sig_unfolding, t)


def test_oracle_imports_no_evaluator():
    # the oracle, its single-step specification, and the normal-form
    # recognizer that judges both engines
    for module in (rewrite, normal, step_reference):
        tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                imported.add((node.module or "").rsplit(".", 1)[-1])
                if not node.module or node.module == "ttkernel":
                    imported.update(alias.name for alias in node.names)
        assert imported, f"no imports found in {module.__name__}: is the parse right?"
        assert not imported & {"nbe", "domain", "check"}, module.__name__
