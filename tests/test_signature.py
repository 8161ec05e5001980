"""Signatures: declaration checking, lookup, definition expansion."""

import pytest

from ttkernel.check import declare, validate
from ttkernel.errors import CheckError, DuplicateName
from ttkernel.signature import Declaration, Define, PostulateTm, PostulateTy, Signature
from ttkernel.syntax import Lam, Nat, TyConst, Var, Zero, numeral


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


def test_validate_rechecks_from_scratch(sig_walkthrough):
    validate(sig_walkthrough)


def test_dropping_definitions_leaves_valid_signature(sig_walkthrough):
    # definition bodies are pre-expanded, so postulates never mention them
    pruned = Signature(
        tuple(d for d in sig_walkthrough.decls if not isinstance(d, Define))
    )
    validate(pruned)


def test_definition_bodies_are_definition_free(sig_walkthrough):
    from ttkernel.syntax import TmConst

    def const_names(t, acc):
        if isinstance(t, TmConst):
            acc.add(t.name)
        for f in getattr(t, "__dataclass_fields__", ()):
            v = getattr(t, f)
            if isinstance(v, tuple):
                for x in v:
                    const_names(x, acc)
            elif hasattr(v, "__dataclass_fields__"):
                const_names(v, acc)
        return acc

    for d in sig_walkthrough.decls:
        if isinstance(d, Define):
            used = const_names(d.body, set())
            for name in used:
                assert sig_walkthrough.find(PostulateTm, name) is not None
