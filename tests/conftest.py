import pytest

from ttkernel.check import declare
from ttkernel.signature import PostulateTm, PostulateTy, Signature
from ttkernel.surface import elaborate, parse
from ttkernel.syntax import Nat, TyConst, Var, Zero

WALKTHROUGH = r"""
-- free-model constants plus arithmetic
postulate A
postulate B (x : A)
postulate f : (x : A) -> B x
def add : Nat -> Nat -> Nat := \m. \n. ind(m; _. Nat; n; p r. succ r)
def mul : Nat -> Nat -> Nat := \m. \n. ind(m; _. Nat; zero; p r. add n r)
"""

# Postulates, a type family over A, a Nat-indexed family and definitions
# (constants, which the oracle unfolds into redexes): the cross-validation
# signature.
CROSSVAL = r"""
postulate A
postulate B (x : A)
postulate f : (x : A) -> B x
postulate C (n : Nat)
postulate c0 : C zero
postulate h : (n : Nat) -> C n
def add : Nat -> Nat -> Nat := \m. \n. ind(m; _. Nat; n; p r. succ r)
def twice : Nat -> Nat := \n. add n n
"""


# Constants whose result applies a parameter: generating at C (v0 zero)
# matches q's argument as v0, which is generated eta-long, as \x. v0 x (it
# can land in a type argument of d); m's arguments, matched from an
# application in the target, are checked against A -> Nat and A.
HIGHER_ORDER_SOURCES = [
    "postulate C (n : Nat)\npostulate q : (u : Nat -> Nat) -> C (u zero)\n",
    "postulate C (n : Nat)\npostulate D (n : Nat) (c : C n)\n"
    "postulate q : (u : Nat -> Nat) -> C (u zero)\npostulate d : (n : Nat) -> (c : C n) -> D n c\n",
    "postulate A\npostulate C (n : Nat)\npostulate m : (u : A -> Nat) -> (a : A) -> C (u a)\n",
]


@pytest.fixture(scope="session")
def sig_empty():
    return Signature()


@pytest.fixture(scope="session")
def sig_abf():
    sig = declare(Signature(), PostulateTy("A"))
    sig = declare(sig, PostulateTy("B", (TyConst("A"),)))
    return declare(sig, PostulateTm("f", (TyConst("A"),), TyConst("B", (Var(0),))))


@pytest.fixture(scope="session")
def sig_walkthrough():
    return elaborate(parse(WALKTHROUGH))


@pytest.fixture(scope="session")
def sig_crossval():
    return elaborate(parse(CROSSVAL))


@pytest.fixture(scope="session")
def sig_dep():
    """A signature with a Nat-indexed constant, for dependent motives."""
    sig = declare(Signature(), PostulateTy("C", (Nat(),)))
    sig = declare(sig, PostulateTm("c0", (), TyConst("C", (Zero(),))))
    sig = declare(sig, PostulateTm("h", (Nat(),), TyConst("C", (Var(0),))))
    # g's second parameter depends on its first: partial abstractions of
    # its spines are ill-formed, which the generators must respect
    return declare(sig, PostulateTm("g", (Nat(), TyConst("C", (Var(0),))), Nat()))
