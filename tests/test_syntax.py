"""Core syntax: renamings, substitution, alpha-equivalence, the node base."""

import dataclasses
from copy import deepcopy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttkernel import domain, normal, signature, surface, syntax
from ttkernel.domain import Closure, NApp, NVar
from ttkernel.gen import enum_terms, gen_cases
from ttkernel.nbe import normalize_tm
from ttkernel.signature import Signature
from ttkernel.surface import elab_tm, elab_ty, parse_expression, parse_type
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
    TmConst,
    TyConst,
    Var,
    Zero,
    alpha_eq,
    const_names,
    inst_params,
    motive_succ_case,
    node_count,
    numeral,
    shift,
    subst1,
    subst_many,
    succ,
    uses_index,
    walk,
)

import subst_reference
from enum_reference import PARTITION_TARGETS
from normal_reference import LamNf, VarNe, to_nf
from renamings import Renaming, rename

NN = Pi(Nat(), Nat())


def nat_ctx(n):
    return Context((Nat(),) * n)


def test_identity_renaming_is_identity():
    r = Renaming.identity(nat_ctx(1))
    assert rename(r, Var(0)) == Var(0)


def test_weakening_shifts_past_new_binder():
    r = Renaming.weakening(nat_ctx(1), Nat())
    assert rename(r, Var(0)) == Var(1)


def test_swap_renaming():
    # (x:Nat, y:Nat) -> (y:Nat, x:Nat); checked by listing the index map by hand
    r = Renaming(nat_ctx(2), nat_ctx(2), (1, 0))
    assert rename(r, Succ(1, Var(0))) == Succ(1, Var(1))


def test_contraction_renaming():
    r = Renaming(nat_ctx(2), nat_ctx(1), (0, 0))
    assert rename(r, App(Var(0), Var(1))) == App(Var(0), Var(0))


def test_renaming_rejects_type_violation():
    src = Context((Nat(), NN))
    with pytest.raises(AssertionError):
        Renaming(src, nat_ctx(2), (0, 1))  # maps the function variable to a Nat


def test_renaming_rejects_out_of_range():
    with pytest.raises(AssertionError):
        Renaming(nat_ctx(1), nat_ctx(1), (1,))


def test_subst1_identity():
    assert subst1(Var(0), Zero()) == Zero()


def test_subst1_homomorphic():
    assert subst1(Succ(1, Var(0)), Succ(1, Zero())) == Succ(2, Zero())


def test_subst1_under_binder_shifts():
    # the free index under the lambda refers to the substituted variable
    assert subst1(Lam(App(Var(0), Var(1))), Zero()) == Lam(App(Var(0), Zero()))


def test_subst1_drops_higher_indices():
    assert subst1(Var(1), Zero()) == Var(0)


def test_alpha_eq_trivials():
    assert alpha_eq(Lam(Var(0)), Lam(Var(0)))
    assert not alpha_eq(Lam(Var(0)), Lam(Succ(1, Var(0))))
    t = NatInd(Var(0), Nat(), Zero(), Succ(1, Var(0)))
    assert alpha_eq(t, t)


def test_var_type_weakens():
    ctx = Context((NN, Nat()))
    assert ctx.var_type(0) == Nat()
    assert ctx.var_type(1) == NN
    ctx2 = Context((Nat(), Pi(Nat(), Nat())))
    assert ctx2.var_type(0) == Pi(Nat(), Nat())


def test_inst_params_order():
    # a telescope (x : Nat, y : Nat) instantiated outermost-first
    body = App(Var(1), Var(0))  # x y
    assert inst_params(body, (Zero(), Succ(1, Zero()))) == App(Zero(), Succ(1, Zero()))


def test_motive_succ_case():
    # constant motive: the successor arm still expects the same type
    assert motive_succ_case(Nat()) == Nat()
    # motive mentioning an ambient variable keeps pointing at it
    from ttkernel.syntax import TyConst

    motive = TyConst("C", (Var(1),))  # ambient Var(0) seen under the motive binder
    assert motive_succ_case(motive) == TyConst("C", (Var(2),))


def test_node_count():
    assert node_count(numeral(3)) == 4
    assert node_count(Lam(Var(0))) == 2
    assert node_count(NatInd(Zero(), Nat(), Zero(), Var(0))) == 5
    assert node_count(TmConst("f", (Var(0), Zero()))) == 3


def test_uses_index():
    assert uses_index(Lam(Var(1)), 0)
    assert not uses_index(Lam(Var(0)), 0)
    assert uses_index(Pi(Nat(), Pi(Nat(), Nat())), 5) is False


# -- property tests over well-scoped terms in all-Nat contexts, where any
#    index map is type-respecting


@st.composite
def scoped_terms(draw, depth, fuel=4):
    opts = ["zero"]
    if depth > 0:
        opts.append("var")
    if fuel > 0:
        opts += ["succ", "lam", "app", "ind"]
    pick = draw(st.sampled_from(opts))
    if pick == "zero":
        return Zero()
    if pick == "var":
        return Var(draw(st.integers(0, depth - 1)))
    if pick == "succ":
        return succ(1, draw(scoped_terms(depth, fuel - 1)))
    if pick == "lam":
        return Lam(draw(scoped_terms(depth + 1, fuel - 1)))
    if pick == "app":
        return App(draw(scoped_terms(depth, fuel - 1)), draw(scoped_terms(depth, fuel - 1)))
    return NatInd(
        draw(scoped_terms(depth, fuel - 1)),
        Nat(),
        draw(scoped_terms(depth, fuel - 1)),
        draw(scoped_terms(depth + 2, fuel - 1)),
    )


@st.composite
def nat_renamings(draw):
    n_tgt = draw(st.integers(1, 4))
    n_src = draw(st.integers(0, 4))
    mapping = tuple(draw(st.integers(0, n_tgt - 1)) for _ in range(n_src))
    return Renaming(nat_ctx(n_src), nat_ctx(n_tgt), mapping)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_rename_identity_law(data):
    n = data.draw(st.integers(0, 3))
    t = data.draw(scoped_terms(n))
    assert rename(Renaming.identity(nat_ctx(n)), t) == t


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_rename_composition_law(data):
    r1 = data.draw(nat_renamings())
    n_mid = len(r1.target)
    n_out = data.draw(st.integers(1, 4))
    r2 = Renaming(
        nat_ctx(n_mid),
        nat_ctx(n_out),
        tuple(data.draw(st.integers(0, n_out - 1)) for _ in range(n_mid)),
    )
    t = data.draw(scoped_terms(len(r1.source)))
    assert rename(r2.compose(r1), t) == rename(r2, rename(r1, t))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_subst_commutes_with_rename(data):
    r = data.draw(nat_renamings())
    body = data.draw(scoped_terms(len(r.source) + 1))
    arg = data.draw(scoped_terms(len(r.source)))
    lifted = r.lift(Nat())
    assert rename(r, subst1(body, arg)) == subst1(rename(lifted, body), rename(r, arg))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_shift_then_subst_cancels(data):
    n = data.draw(st.integers(0, 3))
    t = data.draw(scoped_terms(n))
    assert subst1(shift(t, 1), Zero()) == t



# -- the sharing traversals against the rebuild-everything reference


@pytest.fixture(scope="module")
def scoped_corpus(sig_crossval, sig_dep, sig_abf):
    """``(n, x)``: a term or type ``x`` scoped over ``n`` variables, from
    ``gen_cases`` over three signatures and the size-5 enumeration."""
    out = []
    for sig in (sig_crossval, sig_dep, sig_abf):
        for ctx, ty, t in gen_cases(sig, 3, 60, 9):
            out += [(j, e) for j, e in enumerate(ctx.entries)]
            out += [(len(ctx), ty), (len(ctx), t)]
    for ctx, ty in PARTITION_TARGETS:
        out += [(len(ctx), t) for t in enum_terms(sig_crossval, ctx, ty, 5)]
    return out


SIGMAS = ((Zero(),), (Var(2), Succ(1, Var(0))), (Lam(Var(1)), numeral(2), TmConst("c0")))


def test_traversals_agree_with_the_reference(scoped_corpus):
    for n, x in scoped_corpus:
        for by, cutoff in ((1, 0), (2, 1), (3, 2), (1, 4)):
            assert shift(x, by, cutoff) == subst_reference.shift(x, by, cutoff), x
        for sigma in SIGMAS:
            assert subst_many(x, sigma) == subst_reference.subst_many(x, sigma), x
        for i in range(n + 1):
            assert uses_index(x, i) == subst_reference.uses_index(x, i), x
        if isinstance(x, syntax.Ty):
            assert motive_succ_case(x) == subst_reference.motive_succ_case(x), x


def test_unchanged_trees_come_back_as_they_are(scoped_corpus):
    for n, x in scoped_corpus:
        # no free index reaches the cutoff
        assert shift(x, 3, cutoff=n) is x
        assert subst_many(x, ()) is x
        if n == 0:  # closed
            assert shift(x, 1) is x and subst1(x, Zero()) is x
            assert not any(uses_index(x, i) for i in range(3))


def test_deep_closed_numeral_is_shared():
    big = numeral(10**5)
    assert shift(big, 3) is big and subst1(big, Zero()) is big


def test_changed_trees_share_their_unchanged_parts():
    n = numeral(3)
    assert subst1(App(Var(0), n), Zero()).arg is n
    assert shift(TmConst("h", (Var(0), n, Var(1))), 1).args[1] is n
    motive = TyConst("C", (Var(0),))
    t = shift(NatInd(Var(2), motive, n, Lam(Var(0))), 1)
    assert t == NatInd(Var(3), motive, n, Lam(Var(0)))
    assert t.motive is motive and t.zcase is n
    # only the motive changes
    t = NatInd(Zero(), TyConst("C", (Var(1),)), n, Var(1))
    assert shift(t, 1) == NatInd(Zero(), TyConst("C", (Var(2),)), n, Var(1)) == subst_reference.shift(t, 1)
    ty = Pi(Nat(), TyConst("B", (Var(1),)))
    assert shift(ty, 1).dom is ty.dom


# -- the node base: structural ==, hash and repr without recursion


def _nest(make, leaf, n):
    for _ in range(n):
        leaf = make(leaf)
    return leaf


# case -> (build a tree of size n, its repr, n). A numeral is one node at any
# value; source nesting makes trees as deep as it is.
DEEP_TREES = {
    "numeral": (numeral, "Succ(k={}, base=Zero())".format, 10**9),
    "SuccNf normal form": (  # the reference's grammar tree over NbE's numeral
        lambda n: to_nf(Signature(), Context(), Nat(), normalize_tm(Signature(), Context(), Nat(), numeral(n))),
        "SuccNf(k={}, base=ZeroNf())".format,
        10**9,
    ),
    "Succ chain over a neutral": (
        lambda n: succ(n, NVar(0, Closure((), Nat()))),
        "Succ(k={}, base=NVar(level=0, ty=Closure(env=(), body=Nat())))".format,
        10**9,
    ),
    "Lam nest": (
        lambda n: _nest(Lam, Var(0), n),
        lambda n: "Lam(body=" * n + "Var(index=0)" + ")" * n,
        10**5,
    ),
    "LamNf nest": (
        lambda n: _nest(LamNf, VarNe(0), n),
        lambda n: "LamNf(body=" * n + "VarNe(index=0)" + ")" * n,
        10**5,
    ),
    "NApp spine": (
        lambda n: _nest(lambda ne: NApp(ne, Zero()), NVar(0, Closure((), Nat())), n),
        lambda n: "NApp(fn=" * n + "NVar(level=0, ty=Closure(env=(), body=Nat()))" + ", arg=Zero())" * n,
        10**5,
    ),
}


@pytest.mark.parametrize("case", DEEP_TREES)
def test_deep_chain_eq_hash_repr(case):
    build, shown, n = DEEP_TREES[case]
    a, b, smaller = build(n), build(n), build(n - 1)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != smaller and smaller != a
    assert repr(a) == shown(n)


def test_repr_is_the_dataclass_format():
    assert repr(TmConst("f", (Var(0),))) == "TmConst(name='f', args=(Var(index=0),))"
    assert repr(TyConst("B", (Var(0), Zero()))) == "TyConst(name='B', args=(Var(index=0), Zero()))"
    assert repr(TyConst("A")) == "TyConst(name='A', args=())"
    assert repr(Context((Nat(),))) == "Context(entries=(Nat(),))"
    assert repr(surface.parse_type("(x : Nat) -> A")) == (
        "STyPi(param='x', dom=STyNat(loc=(1, 6)), cod=STyName(name='A', args=(), loc=(1, 14)), "
        "loc=(1, 1))"
    )


def test_eq_compares_classes_lengths_and_leaves():
    assert Var(0) != NVar(0, Closure((), Nat())) and NVar(0, Closure((), Nat())) != Var(0)
    assert Lam(Var(0)) != Closure((), Var(0)) and Closure((), Var(0)) != Lam(Var(0))
    assert Context((Nat(),)) != Context((Nat(), Nat()))
    assert Var(0) != Var(1) and TmConst("f") != TmConst("g")
    assert Var(0) != 0 and Context() != ()
    # nodes without fields: one value per class
    assert Nat() == Nat() and Zero() == Zero()
    assert Nat() != Zero() and Zero() != Nat() and Nat() != Pi(Nat(), Nat())
    t = Pi(Nat(), Nat())
    assert t == t and not t != t


def test_hash_is_the_hash_of_the_walk_shape(scoped_corpus, sig_crossval):
    # pinned values: set iteration and dict order depend on them
    assert hash(Nat()) == hash((Nat,)) and hash(Zero()) == hash((Zero,))
    assert hash(App(Var(0), Zero())) == hash((App, Zero, Var, 0))
    assert hash(TmConst("f", (Var(0),))) == hash((TmConst, 1, Var, 0, "f"))
    assert hash(Context((Nat(), Nat()))) == hash((Context, 2, Nat, Nat))

    def shape(x):
        return tuple(len(y) if y.__class__ is tuple else y.__class__ if isinstance(y, Node) else y for y in walk(x))

    # the corpus holds no Const head; a use of a definition elaborates to one
    with_consts = [elab_tm(sig_crossval, ("v",), parse_expression("add (twice v) (f v)"))]
    classes = set()
    for x in [x for _, x in scoped_corpus] + with_consts:
        assert hash(x) == hash(shape(x)), x
        classes |= {y.__class__ for y in walk(x)}
    assert classes >= {Pi, Nat, TyConst, Var, Lam, App, Zero, Succ, NatInd, TmConst, Const, tuple}


def test_rebuilt_terms_are_equal_and_hash_alike(sig_walkthrough):
    for _, _, t in gen_cases(sig_walkthrough, 0, 200, 9):
        copy = deepcopy(t)  # every node rebuilt
        assert copy is not t and copy == t and hash(copy) == hash(t)


def test_const_names_are_the_walks(sig_crossval):
    # the hand-written collector finds the Const heads the generic walk
    # does, in terms, in types and in the motives and arguments inside them
    sig, names = sig_crossval, ("v",)
    trees = [elab_tm(sig, names, parse_expression(text)) for text in (
        "ind(twice v; m. C (twice m); c0; p r. h (add (succ p) 1))",
        "(\\x. add x (twice x)) (f v)",
        "add",
    )]
    trees += [elab_ty(sig, names, parse_type("C (add 1 v) -> (n : Nat) -> C (twice n)"))]
    trees += [d.body for d in sig.decls if hasattr(d, "body")]
    trees += [t for _, _, t in gen_cases(sig, 0, 50, 9)]
    assert sum(len(const_names(t)) for t in trees) >= 8
    for t in trees:
        assert sorted(const_names(t)) == sorted(x.name for x in walk(t) if isinstance(x, Const))


NODE_MODULES = (syntax, normal, domain, signature, surface)
ABSTRACT_NODES = {
    Node,
    syntax.Ty,
    syntax.Term,
    domain.Value,
    domain.Neutral,
    signature.Declaration,
}


def test_every_node_class_is_a_slotted_dataclass():
    classes = [
        c
        for m in NODE_MODULES
        for c in vars(m).values()
        if isinstance(c, type) and c.__module__ == m.__name__ and c not in (surface._Parser, surface._Printer)
    ]
    concrete = [c for c in classes if c not in ABSTRACT_NODES]
    assert len(concrete) == 33
    for c in concrete:
        assert dataclasses.is_dataclass(c) and issubclass(c, Node), c
        assert not hasattr(object.__new__(c), "__dict__"), c
    for c in ABSTRACT_NODES:
        assert vars(c)["__slots__"] == (), c
