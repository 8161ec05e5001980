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
    node_count,
    numeral,
    split_pi,
    subst1,
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
        return t == TmConst("k") or any(
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
                heads.append((d, d.params + more, *found))
    return heads


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
    # the exact list, in order, at (a : A) |- B a up to size 5
    ctx = Context((TyConst("A"),))
    f0, f1 = TmConst("f", (Var(0),)), TmConst("f", (Var(1),))
    assert enum_terms(sig_abf, ctx, TyConst("B", (Var(0),)), 5) == [
        f0,
        App(Lam(Var(0)), f0),
        App(Lam(f0), Var(0)),
        App(Lam(f1), Var(0)),
        App(Lam(f1), Zero()),
        TmConst("f", (App(Lam(Var(0)), Var(0)),)),
        TmConst("f", (App(Lam(Var(1)), Var(0)),)),
        TmConst("f", (App(Lam(Var(1)), Zero()),)),
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
