"""Signatures: declaration checking, lookup, extension, definitions as constants."""

import functools

import pytest

from ttkernel.check import declare
from ttkernel.domain import Closure
from ttkernel.errors import CheckError, DuplicateName
from ttkernel.nbe import normalize_tm
from ttkernel.rewrite import rw_normalize
from ttkernel.signature import Declaration, Define, PostulateTm, PostulateTy, Signature
from ttkernel.surface import elab_tm, elaborate, parse, parse_expression
from ttkernel.syntax import App, Const, Context, Lam, Nat, NatInd, Pi, TmConst, TyConst, Var, Zero, numeral, walk


def test_declare_free_model_constants():
    sig = declare(Signature(), PostulateTy("A"))
    assert [d.name for d in sig.decls] == ["A"]
    sig = declare(sig, PostulateTy("B", (TyConst("A"),)))
    assert [d.name for d in sig.decls] == ["A", "B"]
    sig = declare(sig, PostulateTm("f", (TyConst("A"),), TyConst("B", (Var(0),))))
    assert [d.name for d in sig.decls] == ["A", "B", "f"]


def test_declare_rejects_duplicates(sig_abf):
    with pytest.raises(DuplicateName):
        declare(sig_abf, PostulateTy("A"))


def test_declare_rejects_ill_formed():
    with pytest.raises(CheckError):
        declare(Signature(), PostulateTy("B", (TyConst("A"),)))  # A not declared yet
    sig = declare(Signature(), PostulateTy("A"))
    with pytest.raises(CheckError):
        # Zero : Nat cannot index B, which expects an A
        declare(
            declare(sig, PostulateTy("B", (TyConst("A"),))),
            PostulateTm("f", (), TyConst("B", (Zero(),))),
        )


def test_lookup(sig_abf):
    f = sig_abf.find(PostulateTm, "f")
    assert isinstance(f, PostulateTm)
    b = sig_abf.find(Declaration, "B")
    assert isinstance(b, PostulateTy) and len(b.params) == 1
    # a name of another kind, and an unknown name, find nothing
    assert sig_abf.find(PostulateTy, "f") is None and sig_abf.find(Define, "B") is None
    assert sig_abf.find(Declaration, "g") is None
    assert sig_abf.of_kind(PostulateTy) == [sig_abf.find(PostulateTy, "A"), b]
    # the index is no tree field: built from the declarations alone, a
    # signature is equal, hashes and prints alike, and finds the same
    rebuilt = Signature(sig_abf.decls)
    assert rebuilt == sig_abf and hash(rebuilt) == hash(sig_abf) and repr(rebuilt) == repr(sig_abf)
    assert repr(rebuilt).startswith("Signature(decls=(PostulateTy(")
    assert rebuilt.find(PostulateTm, "f") is f


def test_declare_checks_definitions():
    d = Define("two", Nat(), numeral(2))
    sig = declare(Signature(), d)
    assert sig.find(Define, "two") is d
    with pytest.raises(CheckError):
        declare(Signature(), Define("bad", Nat(), Lam(Var(0))))


def validate(sig):
    """Re-check every declaration of ``sig`` in order, from an empty signature."""
    functools.reduce(declare, sig.of_kind(Declaration), Signature())


def test_validate_rechecks_from_scratch(sig_walkthrough):
    validate(sig_walkthrough)


def test_dropping_definitions_leaves_valid_signature(sig_walkthrough):
    # the postulates here mention no definition
    pruned = Signature(
        tuple(d for d in sig_walkthrough.decls if not isinstance(d, Define))
    )
    validate(pruned)


def test_definition_bodies_name_only_earlier_constants(sig_walkthrough):
    # a body names a definition as a Const head, and only one declared before it
    earlier = set()
    for d in sig_walkthrough.decls:
        if isinstance(d, Define):
            for x in walk(d.body):
                if isinstance(x, TmConst):
                    assert sig_walkthrough.find(PostulateTm, x.name) is not None
                if isinstance(x, Const):
                    assert x.name in earlier
        earlier.add(d.name)
    mul = sig_walkthrough.find(Define, "mul").body
    assert [x.name for x in walk(mul) if isinstance(x, Const)] == ["add"]


def test_extending_the_longest_signature_appends_in_place():
    # so extending costs the same at any length: no declaration is copied
    sig = Signature()
    for i in range(50):
        longer = sig.extend(PostulateTy(f"T{i}"))
        assert i == 0 or longer._decls is sig._decls
        assert sig.find(PostulateTy, f"T{i}") is None and longer.find(PostulateTy, f"T{i}") is not None
        sig = longer
    assert [d.name for d in sig.decls] == [f"T{i}" for i in range(50)]


def test_signatures_extended_from_one_parent_see_only_their_own_declarations():
    parent = elaborate(parse("def one : Nat := 1\n"))
    left = elaborate(parse("def x : Nat := succ one\ndef y : Nat := succ x\n"), parent)
    right = elaborate(parse("def x : Nat := succ (succ one)\ndef y : Nat := succ (succ x)\n"), parent)
    assert parent.find(Declaration, "x") is None and [d.name for d in parent.decls] == ["one"]
    assert left.find(Define, "x") != right.find(Define, "x")
    # each child's values, NbE's and the oracle's, in turn: none leaks into the other
    for sig, values in ((left, (2, 3)), (right, (3, 5)), (left, (2, 3))):
        for name, want in zip(("x", "y"), values):
            t = elab_tm(sig, (), parse_expression(name))
            assert normalize_tm(sig, Context(), Nat(), t) == numeral(want)
            assert rw_normalize(sig, Context(), Nat(), t) == numeral(want)
    assert left._cache["nbe"]["y"] != right._cache["nbe"]["y"]
    # a child declaring another name sees neither sibling's declaration
    other = elaborate(parse("def z : Nat := 7\n"), parent)
    assert [d.name for d in other.decls] == ["one", "z"] and other.find(Define, "x") is None
    assert rw_normalize(other, Context(), Nat(), Const("z")) == numeral(7)
    # a third child, extended after both were used, starts with empty tables
    third = elaborate(parse("def x : Nat := zero\n"), parent)
    assert rw_normalize(third, Context(), Nat(), Const("x")) == Zero()
    assert third._cache == {"rewrite": {"x": Zero()}}


def test_extending_a_signature_that_is_not_last_leaves_the_last_ones_entries():
    parent = elaborate(parse("def one : Nat := 1\n"))
    last = elaborate(parse("def two : Nat := succ one\n"), parent)
    assert normalize_tm(last, Context(), Nat(), Const("two")) == numeral(2)
    assert rw_normalize(last, Context(), Nat(), Const("two")) == numeral(2)
    entries = {key: dict(table) for key, table in last._cache.items()}
    assert set(entries["nbe"]) == set(entries["rewrite"]) == {"one", "two"}
    other = declare(parent, Define("two", Nat(), numeral(5)))
    assert other._cache == {} and other._decls is not last._decls
    assert normalize_tm(other, Context(), Nat(), Const("two")) == numeral(5)
    assert rw_normalize(other, Context(), Nat(), Const("two")) == numeral(5)
    assert last._cache == entries and all(
        last._cache[key][name] is entry for key, table in entries.items() for name, entry in table.items()
    )


def test_a_term_constant_as_a_function_reaches_both_engines_through_its_entry(sig_abf, monkeypatch):
    asked, entry = [], Signature.entry

    def spy(sig, key, name, compute):
        asked.append((key, name))
        return entry(sig, key, name, compute)

    monkeypatch.setattr(Signature, "entry", spy)
    ctx, t = Context((TyConst("A"),)), App(Const("f"), Var(0))
    ty = TyConst("B", (Var(0),))
    assert normalize_tm(sig_abf, ctx, ty, t) == rw_normalize(sig_abf, ctx, ty, t) == TmConst("f", (Var(0),))
    assert asked == [("nbe", "f"), ("rewrite", "f")]
    assert sig_abf.function("f") == (Pi(TyConst("A"), TyConst("B", (Var(0),))), Lam(TmConst("f", (Var(0),))))
    assert sig_abf._cache["rewrite"] == {"f": Lam(TmConst("f", (Var(0),)))}
    assert sig_abf._cache["nbe"]["f"] == Closure((), TmConst("f", (Var(0),)))


# a Const naming no function; an undeclared term constant, as a spine; an
# undeclared type constant, as an eliminator's motive. The context is (Nat, nope).
NO_DECLARATION = {
    "unknown": (Nat(), Const("nope"), "'nope'"),
    "a type constant": (Nat(), Const("A"), "'A'"),
    "an undeclared term constant": (Nat(), TmConst("nope"), "^'nope' is not a term constant$"),
    "an undeclared type constant": (
        TyConst("nope"),
        NatInd(Var(1), TyConst("nope"), Var(0), Var(0)),
        "^'nope' is not a type constant$",
    ),
}


@pytest.mark.parametrize("case", NO_DECLARATION)
def test_a_const_that_names_no_function_fails_in_both_engines(sig_crossval, case):
    # as an unknown term constant does in either engine: an assertion that
    # names it, not an error from inside the fill of its entry or readback
    ty, t, message = NO_DECLARATION[case]
    for normalize in (normalize_tm, rw_normalize):
        with pytest.raises(AssertionError, match=message):
            normalize(sig_crossval, Context((Nat(), TyConst("nope"))), ty, t)
