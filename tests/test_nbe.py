"""Evaluation, reflect/reify, and the normalization functions.

The *_equation tests pin the computation rules of the evaluator's
normalization structure, one per rule, by computing both sides
independently and comparing their readbacks.
"""

import sys

import pytest

from ttkernel import nbe
from ttkernel.check import conv_tm, infer
from ttkernel.domain import (
    Closure,
    NApp,
    NConst,
    NNatInd,
    NVar,
    VLam,
    VNe,
    VSucc,
    VZero,
)
from ttkernel.nbe import (
    apply,
    eval_tm,
    eval_ty,
    id_env,
    nfty,
    normalize_tm,
    normalize_ty,
    reflect,
    reify,
    reify_ne,
    var_value,
)
from ttkernel.normal import (
    AppNe,
    FunNf,
    LamNf,
    NatIndNe,
    NatNf,
    SuccNf,
    TmConstNe,
    TyConstNf,
    VarNe,
    ZeroNf,
    erase,
    is_normal,
)
from ttkernel.rewrite import rw_normalize
from ttkernel.surface import elab_tm, elab_ty, elaborate, parse, parse_expression, parse_type, print_nf, print_tm
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
    numeral,
    succ,
)

NN = Pi(Nat(), Nat())
NAT_CLO = Closure((), Nat())
NN_CLO = Closure((), NN)
A = TyConst("A")
A_CLO = Closure((), A)
B_OF = lambda t: TyConst("B", (t,))


# -- semantic variables


def test_var_value_at_nat():
    assert var_value(NAT_CLO, 0) == VNe(NAT_CLO, NVar(0))


def test_var_value_at_constant():
    assert var_value(A_CLO, 0) == VNe(A_CLO, NVar(0))


def test_var_value_at_function_type_is_typed_neutral(sig_empty):
    ty = NN_CLO
    v = var_value(ty, 0)
    assert v == VNe(ty, NVar(0))
    assert reify(sig_empty, 1, ty, v) == LamNf(AppNe(VarNe(1), VarNe(0)))


# -- evaluation


def test_eval_ty_basics(sig_empty, sig_abf):
    assert eval_ty(sig_empty, (), Nat()) == NAT_CLO
    assert eval_ty(sig_abf, (), A) == A_CLO
    assert eval_ty(sig_empty, (), NN) == NN_CLO


def test_eval_ty_keeps_the_type_as_written(sig_abf):
    # types never compute: a redex in a type argument waits for nfty
    a = var_value(A_CLO, 0)
    ty = B_OF(App(Lam(Var(0)), Var(0)))
    assert eval_ty(sig_abf, (a,), ty) == Closure((a,), ty)
    assert nfty(sig_abf, 1, eval_ty(sig_abf, (a,), ty)) == TyConstNf("B", (VarNe(0),))


def test_eval_ind_zero_case(sig_empty):
    t = NatInd(Zero(), Nat(), Succ(1, Zero()), Succ(1, Var(0)))
    assert eval_tm(sig_empty, (), t) == VSucc(1, VZero())


def test_eval_beta(sig_empty):
    assert eval_tm(sig_empty, (), App(Lam(Var(0)), Zero())) == VZero()


def test_eval_term_constant_is_neutral(sig_abf):
    a = var_value(A_CLO, 0)
    v = eval_tm(sig_abf, (a,), TmConst("f", (Var(0),)))
    assert v == VNe(Closure((a,), B_OF(Var(0))), NConst("f", (a,)))


def test_eval_ind_succ_uses_predecessor_and_recursion(sig_empty):
    # scase returns its predecessor: ind(3, ...) = 2
    t = NatInd(numeral(3), Nat(), Zero(), Var(1))
    assert eval_tm(sig_empty, (), t) == eval_tm(sig_empty, (), numeral(2))


# -- application


def test_apply_closure(sig_empty):
    assert apply(sig_empty, VLam(Closure((), Var(0))), VZero()) == VZero()


def test_apply_reflected_variable(sig_empty):
    fn = var_value(NN_CLO, 0)
    assert apply(sig_empty, fn, VZero()) == VNe(
        Closure((VZero(),), Nat()), NApp(NVar(0), VZero(), NAT_CLO)
    )


def test_apply_non_function_is_invariant_breach(sig_empty):
    with pytest.raises(AssertionError):
        apply(sig_empty, VZero(), VZero())


def test_apply_closure_with_body(sig_empty):
    fn = VLam(Closure((), Succ(1, Var(0))))
    assert apply(sig_empty, fn, VSucc(1, VZero())) == VSucc(2, VZero())


# -- reflect


def test_reflect_at_nat():
    assert reflect(NAT_CLO, NVar(3)) == VNe(NAT_CLO, NVar(3))


def test_reflect_at_constant():
    assert reflect(A_CLO, NConst("g")) == VNe(A_CLO, NConst("g"))


def test_reflect_then_apply(sig_empty):
    v = reflect(NN_CLO, NVar(0))
    want = VNe(Closure((VZero(),), Nat()), NApp(NVar(0), VZero(), NAT_CLO))
    assert apply(sig_empty, v, VZero()) == want


# -- reify


def test_reify_numeral(sig_empty):
    assert reify(sig_empty, 0, NAT_CLO, VSucc(2, VZero())) == SuccNf(2, ZeroNf())


def test_reify_neutral_at_nat(sig_empty):
    assert reify(sig_empty, 1, NAT_CLO, VNe(NAT_CLO, NVar(0))) == VarNe(0)


def test_reify_at_function_type_is_eta_long(sig_empty):
    ty = NN_CLO
    got = reify(sig_empty, 1, ty, var_value(ty, 0))
    assert got == LamNf(AppNe(VarNe(1), VarNe(0)))


def test_reify_rejects_escaped_level(sig_empty):
    with pytest.raises(AssertionError):
        reify_ne(sig_empty, 1, NVar(1))


# -- nfty


def test_nfty_nat(sig_empty):
    assert nfty(sig_empty, 0, NAT_CLO) == NatNf()


def test_nfty_function(sig_empty):
    assert nfty(sig_empty, 0, NN_CLO) == FunNf(NatNf(), NatNf())


def test_nfty_indexed_constant(sig_abf):
    sem = Closure((VNe(A_CLO, NVar(0)),), B_OF(Var(0)))
    assert nfty(sig_abf, 1, sem) == TyConstNf("B", (VarNe(0),))


# -- identity environments


def test_id_env_empty(sig_empty):
    assert id_env(sig_empty, Context()) == ()


def test_id_env_singleton(sig_empty):
    assert id_env(sig_empty, Context((Nat(),))) == (VNe(NAT_CLO, NVar(0)),)


def test_id_env_levels_match_positions(sig_empty):
    env = id_env(sig_empty, Context((Nat(), Nat())))
    v0 = VNe(NAT_CLO, NVar(0))
    assert env == (v0, VNe(Closure((v0,), Nat()), NVar(1)))


# -- normalization functions


def test_normalize_arithmetic(sig_empty):
    t = NatInd(numeral(2), Nat(), numeral(1), Succ(1, Var(0)))
    assert normalize_tm(sig_empty, Context(), Nat(), t) == SuccNf(3, ZeroNf())


def test_normalize_eta_expands_variable(sig_empty):
    ctx = Context((NN,))
    got = normalize_tm(sig_empty, ctx, NN, Var(0))
    assert got == LamNf(AppNe(VarNe(1), VarNe(0)))


def test_normalize_constant_spine(sig_abf):
    ctx = Context((A,))
    got = normalize_tm(sig_abf, ctx, B_OF(Var(0)), TmConst("f", (Var(0),)))
    a_nf = VarNe(0)
    assert got == TmConstNe("f", (a_nf,))


def test_normalize_variable_at_base_type_is_its_coercion(sig_abf):
    got = normalize_tm(sig_abf, Context((A,)), A, Var(0))
    assert got == VarNe(0)


def test_normalize_ty_dependent(sig_abf):
    ctx = Context((A,))
    got = normalize_ty(sig_abf, ctx, B_OF(App(Lam(Var(0)), Var(0))))
    assert got == TyConstNf("B", (VarNe(0),))


def test_dependent_eliminator_with_indexed_motive(sig_dep):
    # motive C n: the eliminator computes on numerals and blocks on variables
    C = TyConst("C", (Var(0),))
    t = NatInd(numeral(2), C, TmConst("c0"), TmConst("h", (Succ(1, Var(1)),)))
    got = normalize_tm(sig_dep, Context(), TyConst("C", (numeral(2),)), t)
    assert erase(got) == TmConst("h", (numeral(2),))
    ctx = Context((Nat(),))
    blocked = NatInd(Var(0), C, TmConst("c0"), TmConst("h", (Succ(1, Var(1)),)))
    got2 = normalize_tm(sig_dep, ctx, TyConst("C", (Var(0),)), blocked)
    assert isinstance(got2, NatIndNe)


def test_applying_a_neutral_does_not_evaluate_its_codomain(sig_crossval, monkeypatch):
    # v : (n : Nat) -> C (add n n); add's application waits in v 3's type
    # until readback, which does not read it at C
    sig = sig_crossval
    ctx = Context((elab_ty(sig, (), parse_type("(n : Nat) -> C (add n n)")),))
    t = App(Var(0), numeral(3))
    env = id_env(sig, ctx)
    calls = []
    nat_ind = nbe._nat_ind
    monkeypatch.setattr(nbe, "_nat_ind", lambda *a: calls.append(a) or nat_ind(*a))
    eval_tm(sig, env, t)
    assert calls == []
    monkeypatch.undo()
    ty = infer(sig, ctx, t)
    assert normalize_tm(sig, ctx, ty, t) == AppNe(VarNe(0), SuccNf(3, ZeroNf()))


# -- definitions as constants

CHAIN_3 = "def d0 : Nat -> Nat := \\n. succ n\n" + "".join(
    f"def d{j} : Nat -> Nat := \\n. d{j - 1} (d{j - 1} n)\n" for j in range(1, 4)
)
ARITH = r"""
def add : Nat -> Nat -> Nat := \m. \n. ind(m; _. Nat; n; p r. succ r)
def mul : Nat -> Nat -> Nat := \m. \n. ind(m; _. Nat; zero; p r. add n r)
def exp : Nat -> Nat -> Nat := \b. \e. ind(e; _. Nat; 1; p r. mul b r)
"""


def test_a_definition_evaluates_to_the_value_of_its_normal_form():
    # d3's body applies d2 twice, but its entry is \n. succ^8 n: applying it
    # evaluates one successor chain, however many definitions d3 names
    sig = elaborate(parse(CHAIN_3))
    assert sig._cache == {}  # checking the file evaluated no body
    t = elab_tm(sig, (), parse_expression("d3 1"))
    assert normalize_tm(sig, Context(), Nat(), t) == SuccNf(9, ZeroNf())
    values = sig._cache["nbe"]
    assert list(values) == ["d0", "d1", "d2", "d3"]  # filled in declaration order
    assert values["d3"] == VLam(Closure((), Succ(8, Var(0))))


def test_only_the_definitions_a_use_needs_are_evaluated():
    sig = elaborate(parse(ARITH))
    eval_tm(sig, (), elab_tm(sig, (), parse_expression("mul 2 3")))
    assert set(sig._cache["nbe"]) == {"add", "mul"}


def test_a_term_constant_as_a_function_evaluates_to_its_eta_expansion(sig_abf):
    assert eval_tm(sig_abf, (), Const("f")) == VLam(Closure((), TmConst("f", (Var(0),))))
    ctx = Context((A,))
    got = normalize_tm(sig_abf, ctx, B_OF(Var(0)), App(Const("f"), Var(0)))
    assert got == TmConstNe("f", (VarNe(0),))


def test_filling_a_long_chain_of_definitions_takes_no_frame_per_definition():
    # 2,000 definitions, each the successor of the one before, evaluated
    # under a recursion limit of a few hundred frames
    source = "def c0 : Nat := zero\n" + "".join(f"def c{k} : Nat := succ c{k - 1}\n" for k in range(1, 2000))
    sig = elaborate(parse(source))
    t = elab_tm(sig, (), parse_expression("c1999"))
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        got = normalize_tm(sig, Context(), Nat(), t)
    finally:
        sys.setrecursionlimit(limit)
    assert got == SuccNf(1999, ZeroNf())


# -- the computation rules of the normalization structure, one test each


def test_equation_nfty_fun(sig_empty):
    env, dom, cod = (), Nat(), Nat()
    lhs = nfty(sig_empty, 0, Closure(env, Pi(dom, cod)))
    fresh = var_value(Closure(env, dom), 0)
    rhs = FunNf(
        nfty(sig_empty, 0, Closure(env, dom)),
        nfty(sig_empty, 1, Closure(env + (fresh,), cod)),
    )
    assert lhs == rhs


def test_equation_reify_abs(sig_empty):
    v = VLam(Closure((), Succ(1, Var(0))))
    lhs = reify(sig_empty, 0, NN_CLO, v)
    fresh = var_value(NAT_CLO, 0)
    rhs = LamNf(reify(sig_empty, 1, Closure((fresh,), Nat()), apply(sig_empty, v, fresh)))
    assert lhs == rhs


def test_equation_apply_reflected(sig_empty):
    env, dom, cod = (), Nat(), Nat()
    ne = NVar(0)
    lhs = apply(sig_empty, reflect(Closure(env, Pi(dom, cod)), ne), VZero())
    rhs = reflect(Closure(env + (VZero(),), cod), NApp(ne, VZero(), Closure(env, dom)))
    assert lhs == rhs


def test_equation_nfty_nat(sig_empty):
    assert nfty(sig_empty, 0, NAT_CLO) == NatNf()


def test_equation_reify_zero(sig_empty):
    assert reify(sig_empty, 0, NAT_CLO, VZero()) == ZeroNf()


def test_equation_reify_succ(sig_empty):
    n0 = VSucc(1, VZero())
    want = succ(SuccNf, 1, reify(sig_empty, 0, NAT_CLO, n0))
    assert reify(sig_empty, 0, NAT_CLO, succ(VSucc, 1, n0)) == want


def test_equation_reify_reflect_nat(sig_empty):
    ne = NApp(NVar(0), VZero(), NAT_CLO)
    lhs = reify(sig_empty, 1, NAT_CLO, reflect(NAT_CLO, ne))
    assert lhs == reify_ne(sig_empty, 1, ne)


def test_equation_ind_on_reflected_neutral(sig_empty):
    # evaluating the eliminator against a neutral scrutinee produces the
    # blocked neutral reflected at the instantiated motive
    env = id_env(sig_empty, Context((Nat(),)))
    scrut_ne = NVar(0)
    lhs = eval_tm(sig_empty, env, NatInd(Var(0), Nat(), Zero(), Succ(1, Var(0))))
    blocked = NNatInd(
        scrut_ne,
        Closure(env, Nat()),
        eval_tm(sig_empty, env, Zero()),
        Closure(env, Succ(1, Var(0))),
    )
    rhs = reflect(Closure(env + (env[0],), Nat()), blocked)
    assert lhs == rhs
    # and its readback reifies the motive, zero case and successor case
    # under the right number of fresh variables
    got = reify(sig_empty, 1, NAT_CLO, lhs)
    assert got == NatIndNe(VarNe(0), NatNf(), ZeroNf(), SuccNf(1, VarNe(0)))


def test_equation_nfty_const(sig_abf):
    assert nfty(sig_abf, 0, A_CLO) == TyConstNf("A", ())


def test_equation_reify_reflect_const(sig_abf):
    ne = NVar(0)
    lhs = reify(sig_abf, 1, A_CLO, reflect(A_CLO, ne))
    assert lhs == reify_ne(sig_abf, 1, ne)


def test_equation_nfty_indexed_const(sig_abf):
    a0 = var_value(A_CLO, 0)
    lhs = nfty(sig_abf, 1, Closure((a0,), B_OF(Var(0))))
    assert lhs == TyConstNf("B", (reify(sig_abf, 1, A_CLO, a0),))


def test_equation_reify_reflect_indexed_const(sig_abf):
    a0 = var_value(A_CLO, 0)
    ty = Closure((a0,), B_OF(Var(0)))
    ne = NVar(0)
    lhs = reify(sig_abf, 1, ty, reflect(ty, ne))
    assert lhs == reify_ne(sig_abf, 1, ne)


def test_equation_term_constant(sig_abf):
    env = id_env(sig_abf, Context((A,)))
    a0 = env[0]
    lhs = eval_tm(sig_abf, env, TmConst("f", (Var(0),)))
    rhs = reflect(Closure((a0,), B_OF(Var(0))), NConst("f", (a0,)))
    assert lhs == rhs


# -- deep numerals


def _with_frames_to_spare(frames, thunk):
    """Run ``thunk`` with the recursion limit ``frames`` above the current depth."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + frames)
    try:
        return thunk()
    finally:
        sys.setrecursionlimit(limit)


# the third eliminates a 1,000-successor scrutinee and substitutes a
# 500-successor numeral under binders
DEEP_NUMERALS = [("mul 30 30", 900), ("2000", 2000), ("add 1000 (mul 2 500)", 2000)]
LAYERS = [
    "elab_tm",
    "infer",
    "normalize_tm",
    "erase",
    "print_nf",
    "print_tm",
    "conv_tm",
    "rw_normalize",
    "is_normal",
]


@pytest.mark.parametrize("src, n", DEEP_NUMERALS)
@pytest.mark.parametrize("layer", LAYERS)
def test_deep_numeral_stack_follows_nesting(sig_walkthrough, layer, src, n):
    # a numeral is one node in every layer, so the stack a numeral needs does
    # not grow with its value
    sig, ctx = sig_walkthrough, Context()
    stm = parse_expression(src)
    t = elab_tm(sig, (), stm)
    nf = SuccNf(n, ZeroNf())
    assert normalize_tm(sig, ctx, Nat(), t) == nf
    open_t = Succ(n, Var(0))  # n successors over a variable print as a run of succ
    calls = {
        "elab_tm": (lambda: elab_tm(sig, (), stm), t),
        "infer": (lambda: infer(sig, ctx, t), Nat()),
        "normalize_tm": (lambda: normalize_tm(sig, ctx, Nat(), t), nf),
        "erase": (lambda: erase(nf), numeral(n)),
        "print_nf": (lambda: print_nf(nf), str(n)),
        "print_tm": (lambda: print_tm(open_t, ("x",)), "succ " * n + "x"),
        "conv_tm": (
            lambda: (conv_tm(sig, ctx, Nat(), t, numeral(n)), conv_tm(sig, ctx, Nat(), t, numeral(n + 1))),
            (True, False),
        ),
        "rw_normalize": (lambda: rw_normalize(sig, ctx, Nat(), t), numeral(n)),
        "is_normal": (lambda: is_normal(sig, ctx, Nat(), numeral(n)), True),
    }
    thunk, want = calls[layer]
    assert _with_frames_to_spare(100, thunk) == want
