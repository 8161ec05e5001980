"""Generators and enumerators: soundness, completeness, determinism."""

import hashlib
import random
from collections import Counter

import pytest

from ttkernel import gen
from ttkernel.check import check, declare
from ttkernel.errors import CheckError
from ttkernel.gen import (
    GenerationStuck,
    case_problem,
    enum_terms,
    gen_cases,
    gen_context,
    gen_term,
    gen_type,
    ty_abstractions,
    typable,
)
from ttkernel.signature import PostulateTm, Signature
from ttkernel.surface import elaborate, parse, print_case
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
    TyConst,
    Var,
    Zero,
    node_count,
    numeral,
    split_pi,
    subst1,
    walk,
)

from conftest import HIGHER_ORDER_SOURCES
from enum_reference import PARTITION_TARGETS, reference_terms, reference_types
from renamings import gen_renaming


def test_gen_minimal_nat(sig_empty):
    assert gen_term(sig_empty, Context(), Nat(), 1, seed=0) == Zero()


def test_gen_small_terms_stay_in_grammar(sig_empty):
    ctx = Context((Nat(),))
    allowed = {Succ(1, Zero()), Var(0), Zero(), Succ(1, Var(0))}
    for seed in range(30):
        assert gen_term(sig_empty, ctx, Nat(), 2, seed) in allowed


def test_gen_stuck_at_uninhabited_constant(sig_abf):
    with pytest.raises(GenerationStuck):
        gen_term(sig_abf, Context(), TyConst("A"), 5, seed=0)


def test_constant_heads_are_indexed_once_per_signature(sig_crossval):
    # term constants by their result's former, type constants, each in
    # declaration order; definitions are no generator heads
    index = sig_crossval.derived(gen._constants)
    by_former, ty_consts = index
    assert {k: [d.name for d, _, _ in v] for k, v in by_former.items()} == {"B": ["f"], "C": ["c0", "h"]}
    assert [d.name for d in ty_consts] == ["A", "B", "C"]
    assert sig_crossval.derived(gen._constants) is index
    longer = sig_crossval.extend(PostulateTm("n", (), Nat()))
    assert [d.name for d, _, _ in longer.derived(gen._constants)[0][Nat]] == ["n"]


def test_gen_deterministic_per_seed(sig_abf):
    ctx = Context((Nat(), TyConst("A")))
    for seed in range(20):
        a = gen_term(sig_abf, ctx, Nat(), 9, seed)
        b = gen_term(sig_abf, ctx, Nat(), 9, seed)
        assert a == b


# m's arguments are matched from an application in the target, whose head
# need not be at A -> Nat, nor its argument at A
HIGHER_ORDER = "postulate A\npostulate C (n : Nat)\npostulate m : (u : A -> Nat) -> (a : A) -> C (u a)\n"


def test_generated_terms_check(sig_abf, sig_dep):
    for sig in (sig_abf, sig_dep, elaborate(parse(HIGHER_ORDER))):
        for ctx, ty, t in gen_cases(sig, 8, 150, 10, ty_size=5):
            check(sig, ctx, t, ty)
            assert case_problem(sig, ctx, ty, t) is None, print_case(ctx, ty, t)


def test_case_problem_names_each_property(sig_empty, monkeypatch):
    ctx, ty = Context((Nat(),)), Nat()
    t = App(Lam(Succ(1, Var(0))), Var(0))  # normal form: succ v0
    assert case_problem(sig_empty, ctx, ty, t) is None

    def problem_with(name, fake):
        with monkeypatch.context() as m:
            m.setattr(gen, name, fake)
            return case_problem(sig_empty, ctx, ty, t)

    def reject(*args):
        raise CheckError("rejected")

    normalize = gen.normalize_tm  # renormalizing the normal form gives zero
    renormalize = lambda sig, c, a, u: normalize(sig, c, a, u) if u == t else Zero()
    assert problem_with("is_normal", lambda *args: False) == "not normal"
    assert problem_with("oracle_equal", lambda *args: False) == "oracle disagrees"
    assert problem_with("normalize_tm", renormalize) == "not idempotent"
    assert problem_with("check", reject) == "normal form fails to recheck (rejected)"


def test_gen_reaches_eliminators_and_spines(sig_abf):
    rng = random.Random(9)
    shapes = set()
    for _ in range(300):
        ctx = Context((TyConst("A"), Pi(Nat(), Nat())))
        t = gen_term(sig_abf, ctx, Nat(), 10, rng)
        shapes.add(type(t).__name__)
    assert {"NatInd", "App", "Succ"} <= shapes


# a constant declared through the library with a function-typed result; the
# surface splits ``postulate k : Nat -> Nat`` into a parameter instead
SIG_K = declare(Signature(), PostulateTm("k", (), Pi(Nat(), Nat())))


def test_gen_uses_a_constant_with_a_function_result():
    def uses_k(t):
        return t == Const("k") or any(
            isinstance(c, Node) and uses_k(c) for c in (getattr(t, f) for f in t.__match_args__)
        )

    drawn = [gen_term(SIG_K, Context(), Nat(), 8, seed) for seed in range(500)]
    for t in drawn:
        check(SIG_K, Context(), t, Nat())
    assert any(uses_k(t) for t in drawn)


def reference_spine_heads(sig, ctx, ty):
    """The unfiltered loop: every context entry weakened, every head matched."""
    heads = []
    for i in range(len(ctx)):
        tele, result = split_pi(ctx.var_type(i))
        found = gen._match_result(result, ty, len(tele))
        if found is not None:
            heads.append((Var(i), tele, *found))
    for d in sig.decls:
        if isinstance(d, PostulateTm):
            more, result = split_pi(d.result)
            found = gen._match_result(result, ty, len(d.params) + len(more))
            if found is not None:
                heads.append((Const(d.name), d.params + more, *found))
    return heads


def test_the_nat_head_shortcut_is_the_reference_decision(request):
    # at Nat, whether _gen_term offers a spine is decided without the heads:
    # it must be whether the reference list, filtered for the size, is empty
    decisions = {1: set(), 2: set()}
    for name in ["sig_crossval", *PINNED_CASES]:
        sig = _named_signature(request, name)
        for seed in range(50):
            ctx = gen_context(sig, random.Random(seed))
            heads = reference_spine_heads(sig, ctx, Nat())
            for size in (1, 2, 6):
                sized = heads if size >= 2 else [h for h in heads if len(h[2]) == len(h[1])]
                assert gen._has_nat_head(sig, ctx, size) == bool(sized), (name, ctx, size)
                decisions[min(size, 2)].add(bool(sized))
    assert decisions == {1: {True, False}, 2: {True, False}}


def test_spine_heads_is_the_reference_list(sig_crossval, sig_dep, sig_abf, monkeypatch):
    spine_heads = gen._spine_heads
    seen = []

    def checked(sig, ctx, ty):
        heads = spine_heads(sig, ctx, ty)
        assert heads == reference_spine_heads(sig, ctx, ty), (ctx, ty)
        seen.append((ctx, heads))
        return heads

    monkeypatch.setattr(gen, "_spine_heads", checked)
    sigs = [sig_crossval, sig_dep, sig_abf, SIG_K] + [elaborate(parse(s)) for s in HIGHER_ORDER_SOURCES]
    for sig in sigs:
        for seed in range(50):
            rng = random.Random(seed)
            ctx = gen_context(sig, rng)
            ty = gen_type(sig, ctx, rng)
            checked(sig, ctx, ty)
            for _ in gen_cases(sig, seed, 5, 9):
                pass
    # a Pi-typed context entry was a head, with its telescope
    assert any(isinstance(h[0], Var) and h[1] for _, heads in seen for h in heads)


def test_enum_nat_size2(sig_empty):
    assert set(enum_terms(sig_empty, Context(), Nat(), 2)) == {Zero(), Succ(1, Zero())}


def test_enum_nat_in_context_size1(sig_empty):
    assert set(enum_terms(sig_empty, Context((Nat(),)), Nat(), 1)) == {Zero(), Var(0)}


def test_enum_function_size2(sig_empty):
    got = set(enum_terms(sig_empty, Context(), Pi(Nat(), Nat()), 2))
    assert got == {Lam(Zero()), Lam(Var(0))}


def test_enum_matches_hand_list_at_size3(sig_abf):
    # hand enumeration in (x : Nat) at Nat, sizes 1..3: numerals over zero
    # and over the variable; nothing else fits
    ctx = Context((Nat(),))
    hand = {
        Zero(),
        Var(0),
        Succ(1, Zero()),
        Succ(1, Var(0)),
        Succ(2, Zero()),
        Succ(2, Var(0)),
    }
    assert set(enum_terms(sig_abf, ctx, Nat(), 3)) == hand


def test_enum_is_duplicate_free_and_size_bounded(sig_abf):
    ctx = Context((Nat(),))
    terms = enum_terms(sig_abf, ctx, Nat(), 5)
    assert len(terms) == len(set(terms))
    assert all(node_count(t) <= 5 for t in terms)


def test_enum_includes_redexes(sig_empty):
    terms = enum_terms(sig_empty, Context(), Nat(), 4)
    assert App(Lam(Var(0)), Zero()) in terms


def test_enum_pinned_list(sig_abf):
    # the exact list, in order, at (a : A) |- B a up to size 6: f is a
    # head of size 1 at its Pi, which the App rule applies
    ctx = Context((TyConst("A"),))
    f = Const("f")
    f0, f1 = App(f, Var(0)), App(f, Var(1))
    assert enum_terms(sig_abf, ctx, TyConst("B", (Var(0),)), 6) == [
        f0,
        App(f, App(Lam(Var(0)), Var(0))),
        App(f, App(Lam(Var(1)), Var(0))),
        App(f, App(Lam(Var(1)), Zero())),
        App(f, App(Lam(Var(1)), f)),
        App(Lam(Var(0)), f0),
        App(App(Lam(f), Var(0)), Var(0)),
        App(App(Lam(f), Zero()), Var(0)),
        App(App(Lam(Var(0)), f), Var(0)),
        App(App(Lam(f), f), Var(0)),
        App(Lam(f0), Var(0)),
        App(Lam(f1), Var(0)),
        App(Lam(f1), Zero()),
        App(Lam(App(Var(0), Var(1))), f),
        App(Lam(f1), f),
    ]


A, B0 = TyConst("A"), TyConst("B", (Var(0),))
# (signature fixture, context, type, largest size) over which the typed
# enumeration must give the reference's terms at every size, in any order
EXACT_TARGETS = [("sig_crossval", ctx, ty, 6) for ctx, ty in PARTITION_TARGETS] + [
    # context entries of Pi type
    ("sig_crossval", Context((Pi(Nat(), Nat()),)), Nat(), 5),
    ("sig_crossval", Context((Pi(A, B0), A)), B0, 5),
    # a Pi target with a dependent codomain
    ("sig_crossval", Context(), Pi(Nat(), TyConst("C", (Var(0),))), 5),
    # (n : Nat) |- Nat -> C n
    ("sig_crossval", Context((Nat(),)), Pi(Nat(), TyConst("C", (Var(1),))), 5),
    # g's second argument checks at a type instantiated by its first
    ("sig_dep", Context((Nat(),)), Nat(), 5),
]


@pytest.mark.parametrize("sig_name, ctx, ty, size", EXACT_TARGETS)
def test_enum_terms_is_the_reference_list(request, sig_name, ctx, ty, size):
    sig = request.getfixturevalue(sig_name)
    got = enum_terms(sig, ctx, ty, size)
    assert by_size(got, size) == by_size(reference_terms(sig, ctx, ty, size), size)
    for s in range(1, size):  # both go size by size
        assert enum_terms(sig, ctx, ty, s) == [t for t in got if node_count(t) <= s]


def enum_types(sig, ctx, max_size):
    """Every well-formed type with node count <= ``max_size``, by size and,
    within a size, in the enumerator's own order."""
    typed = gen._TypedEnum(sig)
    return [ty for s in range(1, max_size + 1) for ty in typed.types(ctx, s)]


@pytest.mark.parametrize(
    "ctx", [Context(), Context((A,)), Context((Nat(), TyConst("C", (Var(0),))))]
)
def test_enum_types_is_the_reference_list(sig_crossval, ctx):
    got = enum_types(sig_crossval, ctx, 4)
    assert by_size(got, 4) == by_size(reference_types(sig_crossval, ctx, 4), 4)
    for s in range(1, 4):
        assert enum_types(sig_crossval, ctx, s) == [ty for ty in got if node_count(ty) <= s]


def by_size(items, max_size):
    """The multiset of ``items`` of each size 1..``max_size``."""
    return [Counter(x for x in items if node_count(x) == s) for s in range(1, max_size + 1)]


def test_node_count_is_the_walks(sig_crossval):
    # the hand-written count over the grammar counts what the generic walk does
    ctxs = [Context(), Context((A,)), Context((Nat(), TyConst("C", (Var(0),))))]
    trees = [ty for ctx in ctxs for ty in enum_types(sig_crossval, ctx, 4)]
    for ctx, ty in [(Context((Nat(),)), Nat()), (Context((A,)), TyConst("B", (Var(0),)))]:
        trees += enum_terms(sig_crossval, ctx, ty, 5)
    trees += [x for case in gen_cases(sig_crossval, 0, 100, 12) for x in case[1:]]
    trees.append(numeral(5000))
    assert {type(x) for t in trees for x in walk(t)} >= {Pi, Nat, TyConst, Var, Lam, App, Zero, Succ, NatInd, Const}
    for t in trees:
        assert node_count(t) == sum(x.k if isinstance(x, Succ) else 1 for x in walk(t) if isinstance(x, Node))


def test_enum_types(sig_abf):
    tys = enum_types(sig_abf, Context((TyConst("A"),)), 2)
    assert Nat() in tys and TyConst("A") in tys and TyConst("B", (Var(0),)) in tys


def test_typable_accepts_redex_rejects_garbage(sig_empty):
    ctx = Context()
    assert typable(sig_empty, ctx, App(Lam(Var(0)), Zero()), Nat())
    assert not typable(sig_empty, ctx, App(Zero(), Zero()), Nat())
    assert not typable(sig_empty, ctx, Lam(Var(0)), Nat())
    assert not typable(sig_empty, ctx, App(Lam(Var(0)), Lam(Var(0))), Nat())


def test_gen_renaming_produces_all_shapes(sig_abf):
    kinds = set()
    for seed in range(120):
        try:
            src, tgt, r = gen_renaming(sig_abf, seed)
        except GenerationStuck:
            continue
        assert r.source == src and r.target == tgt
        if len(set(r.map)) < len(r.map):
            kinds.add("contraction")
        if len(set(r.map)) < len(tgt):
            kinds.add("weakening")
        if list(r.map) != sorted(r.map):
            kinds.add("exchange")
        if r.map == tuple(range(len(src))) and src == tgt:
            kinds.add("identity")
    assert {"contraction", "weakening", "exchange"} <= kinds


def test_ty_abstractions(sig_dep):
    ty = TyConst("C", (numeral(2),))
    u = numeral(2)
    families = ty_abstractions(ty, u)
    assert TyConst("C", (Var(0),)) in families  # the dependent family
    for fam in families:
        assert subst1(fam, u) == ty
    # the scrutinee can be a part of a numeral: each successor is a level
    assert ty_abstractions(TyConst("C", (numeral(3),)), numeral(1)) == [
        TyConst("C", (Succ(2, Var(0)),)),
        TyConst("C", (numeral(3),)),
    ]


def test_generated_cases_are_pinned(sig_crossval):
    # the cases tt fuzz judges, as it prints them: a change to the RNG stream
    # or to the motive families _gen_ind draws from shows here
    digest = hashlib.sha256()
    for seed in range(4):
        for size in (6, 9, 12):
            for case in gen_cases(sig_crossval, seed, 40, size):
                digest.update(print_case(*case).encode() + b"\n")
    assert digest.hexdigest() == "377c63bd50b85b16f8c052513ae44fb1d10597f8fb808f31c9def84e24ccd907"


# The same loops over the generator's other signatures, which reach what
# CROSSVAL does not: opened match positions and their re-check, and
# Pi-typed binds normalized by the oracle. WALKTHROUGH's definitions are no
# heads, so its cases are sig_abf's.
PINNED_CASES = {
    "sig_walkthrough": "c6cebb612d4a4313a7e49f914ff3b6a3eea22735c053fa893b3586ad7ae23e67",
    "sig_dep": "256b976f5c50691bf01d257b9f40eedf3aa491cb1c6db8c6de1b9fce623c7cd3",
    "sig_abf": "c6cebb612d4a4313a7e49f914ff3b6a3eea22735c053fa893b3586ad7ae23e67",
    "SIG_K": "b7d0aa003677b26138441ea58eedede6ddb9f964d6af63372a24f041f9e2b42b",
    "higher_order_0": "17d737c2da572c7727b33de999a55c0a27172fe5cd412151bfe63a2a0a742163",
    "higher_order_1": "5de14c53458d99f32aef6f92e4f80c9870204e3415bedfc8b466ed0297734fe8",
    "higher_order_2": "1e99f03cc13578f881db4fb9363e00e0674c67e6f314d42b715ad0165a95719a",
}


def _named_signature(request, name):
    if name == "SIG_K":
        return SIG_K
    if name.startswith("higher_order_"):
        return elaborate(parse(HIGHER_ORDER_SOURCES[int(name.rsplit("_", 1)[1])]))
    return request.getfixturevalue(name)


@pytest.mark.parametrize("name", PINNED_CASES)
def test_generated_cases_are_pinned_beyond_crossval(request, name):
    sig = _named_signature(request, name)
    digest = hashlib.sha256()
    for seed in range(4):
        for size in (6, 9, 12):
            for case in gen_cases(sig, seed, 40, size):
                digest.update(print_case(*case).encode() + b"\n")
    assert digest.hexdigest() == PINNED_CASES[name]


def test_match_result_through_successors():
    # a head returning C (succ (succ n)) matches C 5 with n := 3, and no numeral below 2
    pattern = TyConst("C", (Succ(2, Var(0)),))
    assert gen._match_result(pattern, TyConst("C", (numeral(5),)), 1) == ({0: numeral(3)}, set())
    assert gen._match_result(pattern, TyConst("C", (numeral(2),)), 1) == ({0: Zero()}, set())
    assert gen._match_result(pattern, TyConst("C", (numeral(1),)), 1) is None


def test_match_result_through_parameter_free_binders():
    # D n (ind(zero; _. Nat; zero; p r. r)) and D n ((\x. x) n): the binders
    # under the parameter's reach must be equal as they stand
    ind = NatInd(Zero(), Nat(), Zero(), Var(0))
    pattern = TyConst("D", (Var(0), ind))
    assert gen._match_result(pattern, TyConst("D", (numeral(3), ind)), 1) == ({0: numeral(3)}, set())
    other = NatInd(Zero(), Nat(), numeral(1), Var(0))
    assert gen._match_result(pattern, TyConst("D", (numeral(3), other)), 1) is None
    pattern = TyConst("D", (Var(0), App(Lam(Var(0)), Var(0))))
    target = TyConst("D", (numeral(3), App(Lam(Var(0)), numeral(3))))
    assert gen._match_result(pattern, target, 1) == ({0: numeral(3)}, set())
    # a binder that mentions the parameter does not match
    pattern = TyConst("D", (Var(0), App(Lam(Var(1)), Zero())))
    target = TyConst("D", (numeral(3), App(Lam(numeral(3)), Zero())))
    assert gen._match_result(pattern, target, 1) is None
