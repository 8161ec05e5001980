"""Evaluation, readback, and the normalization functions.

The *_equation tests pin the computation rules of the evaluator's
normalization structure, one per rule, by computing both sides
independently and comparing their readbacks.
"""

import sys

import pytest

from ttkernel import nbe
from ttkernel.check import conv_tm, declare, infer
from ttkernel.domain import (
    Closure,
    NApp,
    NConst,
    NNatInd,
    NVar,
)
from ttkernel.gen import gen_cases
from ttkernel.nbe import (
    apply,
    eval_tm,
    eval_ty,
    id_env,
    nfty,
    normalize_tm,
    normalize_ty,
    reify,
    reify_ne,
)
from ttkernel.normal import is_normal
from ttkernel.rewrite import rw_normalize
from ttkernel.signature import PostulateTm
from ttkernel.surface import elab_tm, elab_ty, elaborate, parse, parse_expression, parse_type, print_nf, print_tm
from ttkernel.syntax import (
    App,
    Const,
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
    inst_params,
    motive_succ_case,
    numeral,
    subst1,
    succ,
    walk,
)

from conftest import HIGHER_ORDER_SOURCES

NN = Pi(Nat(), Nat())
NAT_CLO = Closure((), Nat())
NN_CLO = Closure((), NN)
A = TyConst("A")
A_CLO = Closure((), A)
B_OF = lambda t: TyConst("B", (t,))


# -- semantic variables


def test_var_value_at_nat(sig_empty):
    # a variable holds its own type, and reads back as itself at it
    assert reify_ne(sig_empty, 1, NVar(0, NAT_CLO)) == (Var(0), NAT_CLO)


def test_var_value_at_constant(sig_abf):
    assert reify_ne(sig_abf, 1, NVar(0, A_CLO)) == (Var(0), A_CLO)


def test_var_value_at_function_type_is_typed_neutral(sig_empty):
    ty = NN_CLO
    v = NVar(0, ty)
    assert reify_ne(sig_empty, 1, v) == (Var(0), ty)
    assert reify(sig_empty, 1, ty, v) == Lam(App(Var(1), Var(0)))


# -- evaluation


def test_eval_ty_basics(sig_empty, sig_abf):
    assert eval_ty(sig_empty, (), Nat()) == NAT_CLO
    assert eval_ty(sig_abf, (), A) == A_CLO
    assert eval_ty(sig_empty, (), NN) == NN_CLO


def test_eval_ty_keeps_the_type_as_written(sig_abf):
    # types never compute: a redex in a type argument waits for nfty
    a = NVar(0, A_CLO)
    ty = B_OF(App(Lam(Var(0)), Var(0)))
    assert eval_ty(sig_abf, (a,), ty) == Closure((a,), ty)
    assert nfty(sig_abf, 1, eval_ty(sig_abf, (a,), ty)) == TyConst("B", (Var(0),))


def test_eval_ind_zero_case(sig_empty):
    t = NatInd(Zero(), Nat(), Succ(1, Zero()), Succ(1, Var(0)))
    assert eval_tm(sig_empty, (), t) == Succ(1, Zero())


def test_eval_beta(sig_empty):
    assert eval_tm(sig_empty, (), App(Lam(Var(0)), Zero())) == Zero()


def test_a_lambda_evaluates_to_one_closure(sig_empty):
    # a function's value is its closure, with no wrapper around it
    body, env = Succ(1, Var(0)), (Zero(),)
    v = eval_tm(sig_empty, env, Lam(body))
    assert v.__class__ is Closure and v.env is env and v.body is body


def test_eval_term_constant_is_neutral(sig_abf):
    a = NVar(0, A_CLO)
    v = eval_tm(sig_abf, (a,), TmConst("f", (Var(0),)))
    assert v == NConst("f", (a,))
    # readback synthesizes its type: the declared result at its arguments
    assert reify_ne(sig_abf, 1, v) == (TmConst("f", (Var(0),)), Closure((a,), B_OF(Var(0))))


def test_eval_ind_succ_uses_predecessor_and_recursion(sig_empty):
    # scase returns its predecessor: ind(3, ...) = 2
    t = NatInd(numeral(3), Nat(), Zero(), Var(1))
    assert eval_tm(sig_empty, (), t) == eval_tm(sig_empty, (), numeral(2))


# -- application


def test_apply_closure(sig_empty):
    assert apply(sig_empty, Closure((), Var(0)), Zero()) == Zero()


def test_apply_reflected_variable(sig_empty):
    fn = NVar(0, NN_CLO)
    assert apply(sig_empty, fn, Zero()) == NApp(fn, Zero())


def test_apply_non_function_is_invariant_breach(sig_empty):
    with pytest.raises(AssertionError):
        apply(sig_empty, Zero(), Zero())


def test_apply_closure_with_body(sig_empty):
    fn = Closure((), Succ(1, Var(0)))
    assert apply(sig_empty, fn, Succ(1, Zero())) == Succ(2, Zero())


# -- types synthesized from a neutral's head


def test_reflect_then_apply(sig_empty):
    # an applied variable has its codomain at the argument
    v = apply(sig_empty, NVar(0, NN_CLO), Zero())
    assert reify_ne(sig_empty, 1, v) == (App(Var(0), Zero()), Closure((Zero(),), Nat()))


# -- reify


def test_reify_numeral(sig_empty):
    assert reify(sig_empty, 0, NAT_CLO, Succ(2, Zero())) == Succ(2, Zero())


def test_reify_neutral_at_nat(sig_empty):
    assert reify(sig_empty, 1, NAT_CLO, NVar(0, NAT_CLO)) == Var(0)


def test_reify_at_function_type_is_eta_long(sig_empty):
    ty = NN_CLO
    got = reify(sig_empty, 1, ty, NVar(0, ty))
    assert got == Lam(App(Var(1), Var(0)))


def test_reify_rejects_escaped_level(sig_empty):
    with pytest.raises(AssertionError):
        reify_ne(sig_empty, 1, NVar(1, NAT_CLO))


# -- nfty


def test_nfty_nat(sig_empty):
    assert nfty(sig_empty, 0, NAT_CLO) == Nat()


def test_nfty_function(sig_empty):
    assert nfty(sig_empty, 0, NN_CLO) == Pi(Nat(), Nat())


def test_nfty_indexed_constant(sig_abf):
    sem = Closure((NVar(0, A_CLO),), B_OF(Var(0)))
    assert nfty(sig_abf, 1, sem) == TyConst("B", (Var(0),))


# -- identity environments


def test_id_env_empty(sig_empty):
    assert id_env(sig_empty, Context()) == ()


def test_id_env_singleton(sig_empty):
    assert id_env(sig_empty, Context((Nat(),))) == (NVar(0, NAT_CLO),)


def test_id_env_levels_match_positions(sig_empty):
    env = id_env(sig_empty, Context((Nat(), Nat())))
    v0 = NVar(0, NAT_CLO)
    assert env == (v0, NVar(1, Closure((v0,), Nat())))


# -- normalization functions


def test_normalize_arithmetic(sig_empty):
    t = NatInd(numeral(2), Nat(), numeral(1), Succ(1, Var(0)))
    assert normalize_tm(sig_empty, Context(), Nat(), t) == Succ(3, Zero())


def test_a_closed_numeral_is_its_own_value_and_normal_form(sig_empty):
    n = numeral(10**6)
    assert eval_tm(sig_empty, (), n) is n
    assert normalize_tm(sig_empty, Context(), Nat(), n) is n
    # over a variable, the chain is rebuilt around the base read back
    ctx = Context((Nat(),))
    assert normalize_tm(sig_empty, ctx, Nat(), Succ(3, Var(0))) == Succ(3, Var(0))


def test_normalize_eta_expands_variable(sig_empty):
    ctx = Context((NN,))
    got = normalize_tm(sig_empty, ctx, NN, Var(0))
    assert got == Lam(App(Var(1), Var(0)))


def test_normalize_constant_spine(sig_abf):
    ctx = Context((A,))
    got = normalize_tm(sig_abf, ctx, B_OF(Var(0)), TmConst("f", (Var(0),)))
    a_nf = Var(0)
    assert got == TmConst("f", (a_nf,))


def test_normalize_variable_at_base_type_is_its_coercion(sig_abf):
    got = normalize_tm(sig_abf, Context((A,)), A, Var(0))
    assert got == Var(0)


def test_normalize_ty_dependent(sig_abf):
    ctx = Context((A,))
    got = normalize_ty(sig_abf, ctx, B_OF(App(Lam(Var(0)), Var(0))))
    assert got == TyConst("B", (Var(0),))


def test_dependent_eliminator_with_indexed_motive(sig_dep):
    # motive C n: the eliminator computes on numerals and blocks on variables
    C = TyConst("C", (Var(0),))
    t = NatInd(numeral(2), C, TmConst("c0"), TmConst("h", (Succ(1, Var(1)),)))
    got = normalize_tm(sig_dep, Context(), TyConst("C", (numeral(2),)), t)
    assert got == TmConst("h", (numeral(2),))
    ctx = Context((Nat(),))
    blocked = NatInd(Var(0), C, TmConst("c0"), TmConst("h", (Succ(1, Var(1)),)))
    got2 = normalize_tm(sig_dep, ctx, TyConst("C", (Var(0),)), blocked)
    assert isinstance(got2, NatInd)


def test_readback_builds_syntax(sig_crossval, sig_dep):
    # normal forms have no tree family of their own: a normal term is a Term
    # and a normal type a Ty, down to the motives and the constants' arguments
    seen = set()
    for sig in (sig_crossval, sig_dep):
        for ctx, ty, t in gen_cases(sig, 0, 100, 9):
            nf, nf_ty = normalize_tm(sig, ctx, ty, t), normalize_ty(sig, ctx, ty)
            assert isinstance(nf, Term) and isinstance(nf_ty, Ty)
            for x in (*walk(nf), *walk(nf_ty)):
                if isinstance(x, Node):
                    assert isinstance(x, (Term, Ty)), x
                    seen.add(x.__class__)
    assert seen == {App, Lam, Nat, NatInd, Pi, Succ, TmConst, TyConst, Var, Zero}


def _neutral_spines(sig, ctx, ty, t):
    """``(ctx, spine)`` for each neutral spine in the eta-long normal term
    ``t`` at ``ty``: those at base type, and in each its head, its
    scrutinee and the spines of its arguments and cases."""
    while isinstance(ty, Pi):
        ctx, ty, t = ctx.extend(ty.dom), ty.cod, t.body
    if isinstance(t, Succ):
        t = t.base
    if not isinstance(t, Zero):
        yield from _in_spine(sig, ctx, t)


def _in_spine(sig, ctx, t):
    yield ctx, t
    match t:
        case App(f, a):
            yield from _in_spine(sig, ctx, f)
            yield from _neutral_spines(sig, ctx, infer(sig, ctx, f).dom, a)
        case NatInd(scrut, motive, z, s):
            yield from _in_spine(sig, ctx, scrut)
            yield from _neutral_spines(sig, ctx, subst1(motive, Zero()), z)
            yield from _neutral_spines(sig, ctx.extend(Nat()).extend(motive), motive_succ_case(motive), s)
        case TmConst(name, args):
            params = sig.find(PostulateTm, name).params
            for i, a in enumerate(args):
                yield from _neutral_spines(sig, ctx, inst_params(params[i], args[:i]), a)


def test_a_neutral_synthesizes_the_type_the_checker_infers(sig_crossval, sig_dep):
    # readback reads a neutral's type off its head; at every neutral spine a
    # normal form contains, that type is the checker's, up to conversion
    # k's declared result is a Pi, dependent on its own argument
    sig_k = declare(sig_dep, PostulateTm("k", (Nat(),), Pi(Nat(), TyConst("C", (Var(0),)))))
    cases = []
    sigs = [sig_crossval, sig_dep, sig_k] + [elaborate(parse(s)) for s in HIGHER_ORDER_SOURCES]
    for i, sig in enumerate(sigs):
        cases += [(sig, *case) for case in gen_cases(sig, i, 100, 9)]
    # a neutral eliminator with a Pi motive, applied to an argument
    pi_motive = r"\a. \n. \g. (ind(n; k. (B a -> Nat) -> Nat; \h. h (f a); p r. \h. succ (r h))) g"
    pi_motive_ty = "(a : A) -> Nat -> (B a -> Nat) -> Nat"
    cases.append(
        (
            sig_crossval,
            Context(),
            elab_ty(sig_crossval, (), parse_type(pi_motive_ty)),
            elab_tm(sig_crossval, (), parse_expression(pi_motive)),
        )
    )
    # a term constant whose declared result is a Pi, applied
    k_app = App(TmConst("k", (Var(0),)), Succ(1, Var(0)))
    cases.append((sig_k, Context((Nat(),)), TyConst("C", (Succ(1, Var(0)),)), k_app))
    # a variable applied twice, its second argument at a type over its first
    ctx = Context((Pi(Nat(), Pi(TyConst("C", (Var(0),)), Nat())),))
    cases.append((sig_dep, ctx, Nat(), App(App(Var(0), Zero()), TmConst("c0"))))
    heads = set()
    for sig, ctx, ty, t in cases:
        for at, spine in _neutral_spines(sig, ctx, ty, normalize_tm(sig, ctx, ty, t)):
            depth = len(at)
            got, sem_ty = reify_ne(sig, depth, eval_tm(sig, id_env(sig, at), spine))
            assert got == spine
            assert nfty(sig, depth, sem_ty) == normalize_ty(sig, at, infer(sig, at, spine)), spine
            if isinstance(spine, App):
                heads.add(spine.fn.__class__)
    # functions that are variables, applications, eliminators and constants
    assert heads == {Var, App, NatInd, TmConst}


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
    assert normalize_tm(sig, ctx, ty, t) == App(Var(0), Succ(3, Zero()))


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
    assert normalize_tm(sig, Context(), Nat(), t) == Succ(9, Zero())
    values = sig._cache["nbe"]
    assert list(values) == ["d0", "d1", "d2", "d3"]  # filled in declaration order
    assert values["d3"] == Closure((), Succ(8, Var(0)))


def test_only_the_definitions_a_use_needs_are_evaluated():
    sig = elaborate(parse(ARITH))
    eval_tm(sig, (), elab_tm(sig, (), parse_expression("mul 2 3")))
    assert set(sig._cache["nbe"]) == {"add", "mul"}


def test_a_term_constant_as_a_function_evaluates_to_its_eta_expansion(sig_abf):
    assert eval_tm(sig_abf, (), Const("f")) == Closure((), TmConst("f", (Var(0),)))
    ctx = Context((A,))
    got = normalize_tm(sig_abf, ctx, B_OF(Var(0)), App(Const("f"), Var(0)))
    assert got == TmConst("f", (Var(0),))


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
    assert got == Succ(1999, Zero())


# -- the computation rules of the normalization structure, one test each


def test_equation_nfty_fun(sig_empty):
    env, dom, cod = (), Nat(), Nat()
    lhs = nfty(sig_empty, 0, Closure(env, Pi(dom, cod)))
    fresh = NVar(0, Closure(env, dom))
    rhs = Pi(
        nfty(sig_empty, 0, Closure(env, dom)),
        nfty(sig_empty, 1, Closure(env + (fresh,), cod)),
    )
    assert lhs == rhs


def test_equation_reify_abs(sig_empty):
    v = Closure((), Succ(1, Var(0)))
    lhs = reify(sig_empty, 0, NN_CLO, v)
    fresh = NVar(0, NAT_CLO)
    rhs = Lam(reify(sig_empty, 1, Closure((fresh,), Nat()), apply(sig_empty, v, fresh)))
    assert lhs == rhs


def test_equation_apply_reflected(sig_empty):
    # applying a neutral extends its spine; readback reads the argument at
    # the domain its function synthesizes, and the codomain is its type
    env, dom, cod = (), Nat(), Nat()
    fn = NVar(0, Closure(env, Pi(dom, cod)))
    lhs = apply(sig_empty, fn, Zero())
    assert lhs == NApp(fn, Zero())
    arg = reify(sig_empty, 1, Closure(env, dom), Zero())
    assert reify_ne(sig_empty, 1, lhs) == (App(Var(0), arg), Closure(env + (Zero(),), cod))


def test_equation_nfty_nat(sig_empty):
    assert nfty(sig_empty, 0, NAT_CLO) == Nat()


def test_equation_reify_zero(sig_empty):
    assert reify(sig_empty, 0, NAT_CLO, Zero()) == Zero()


def test_equation_reify_succ(sig_empty):
    n0 = Succ(1, Zero())
    want = succ(1, reify(sig_empty, 0, NAT_CLO, n0))
    assert reify(sig_empty, 0, NAT_CLO, succ(1, n0)) == want


def test_equation_reify_reflect_nat(sig_empty):
    ne = NApp(NVar(0, NN_CLO), Zero())
    lhs = reify(sig_empty, 1, NAT_CLO, ne)
    assert lhs == reify_ne(sig_empty, 1, ne)[0]


def test_equation_ind_on_reflected_neutral(sig_empty):
    # evaluating the eliminator against a neutral scrutinee produces the
    # blocked eliminator, whose type is the motive at the scrutinee
    env = id_env(sig_empty, Context((Nat(),)))
    scrut_ne = env[0]
    lhs = eval_tm(sig_empty, env, NatInd(Var(0), Nat(), Zero(), Succ(1, Var(0))))
    rhs = NNatInd(
        scrut_ne,
        Closure(env, Nat()),
        eval_tm(sig_empty, env, Zero()),
        Closure(env, Succ(1, Var(0))),
    )
    assert lhs == rhs
    assert reify_ne(sig_empty, 1, lhs)[1] == Closure(env + (scrut_ne,), Nat())
    # and its readback reifies the motive, zero case and successor case
    # under the right number of fresh variables
    got = reify(sig_empty, 1, NAT_CLO, lhs)
    assert got == NatInd(Var(0), Nat(), Zero(), Succ(1, Var(0)))


def test_equation_nfty_const(sig_abf):
    assert nfty(sig_abf, 0, A_CLO) == TyConst("A", ())


def test_equation_reify_reflect_const(sig_abf):
    ne = NVar(0, A_CLO)
    lhs = reify(sig_abf, 1, A_CLO, ne)
    assert lhs == reify_ne(sig_abf, 1, ne)[0]


def test_equation_nfty_indexed_const(sig_abf):
    a0 = NVar(0, A_CLO)
    lhs = nfty(sig_abf, 1, Closure((a0,), B_OF(Var(0))))
    assert lhs == TyConst("B", (reify(sig_abf, 1, A_CLO, a0),))


def test_equation_reify_reflect_indexed_const(sig_abf):
    a0 = NVar(0, A_CLO)
    ty = Closure((a0,), B_OF(Var(0)))
    ne = NVar(1, ty)
    lhs = reify(sig_abf, 2, ty, ne)
    assert lhs == reify_ne(sig_abf, 2, ne)[0]


def test_equation_term_constant(sig_abf):
    env = id_env(sig_abf, Context((A,)))
    a0 = env[0]
    lhs = eval_tm(sig_abf, env, TmConst("f", (Var(0),)))
    assert lhs == NConst("f", (a0,))
    assert reify_ne(sig_abf, 1, lhs)[1] == Closure((a0,), B_OF(Var(0)))


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
    nf = Succ(n, Zero())
    assert normalize_tm(sig, ctx, Nat(), t) == nf
    open_t = Succ(n, Var(0))  # n successors over a variable print as a run of succ
    calls = {
        "elab_tm": (lambda: elab_tm(sig, (), stm), t),
        "infer": (lambda: infer(sig, ctx, t), Nat()),
        "normalize_tm": (lambda: normalize_tm(sig, ctx, Nat(), t), nf),
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
