"""The closed form of the Nat eliminator in NbE, against the unrolled
reference of ``tests/nat_ind_reference.py`` and the rewriting oracle.

The closed form probes the successor case once over fresh markers and
tells the markers apart by identity; the nested cases below are the ones
a structural comparison of markers would get wrong.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nat_ind_reference
from ttkernel import nbe
from ttkernel.normal import NatIndNe, NatNf, SuccNf, VarNe, ZeroNf, erase
from ttkernel.rewrite import rw_normalize
from ttkernel.signature import Signature
from ttkernel.surface import elab_tm, elab_ty, parse_expression, parse_type
from ttkernel.syntax import Context, Nat, NatInd, Succ, Var, Zero, alpha_eq, numeral, succ

X = Context((Nat(),))  # x : Nat, the neutral base of a scrutinee


def _agree(sig, ctx, ty, t):
    """NbE's normal form of ``t``, checked against the reference's and the oracle's."""
    nf = nbe.normalize_tm(sig, ctx, ty, t)
    assert nf == nat_ind_reference.normalize_tm(sig, ctx, ty, t)
    assert alpha_eq(erase(nf), rw_normalize(sig, ctx, ty, t))
    return nf


# (expression, its type, does the successor case have a closed form)
PINNED = [
    ("ind(5; _. Nat; zero; p r. succ r)", "Nat", True),
    ("ind(5; _. Nat; 7; p r. r)", "Nat", True),
    ("ind(5; _. Nat; 1; p r. add 3 r)", "Nat", True),
    ("ind(succ succ x; _. Nat; zero; p r. succ r)", "Nat", True),
    ("ind(succ succ succ x; _. Nat; 4; p r. r)", "Nat", True),
    ("ind(5; _. Nat; zero; p r. p)", "Nat", False),
    ("ind(5; _. Nat; 1; p r. add p r)", "Nat", False),
    ("ind(5; _. Nat -> Nat; \\y. y; p r. \\y. succ (r y))", "Nat -> Nat", False),
]


@pytest.mark.parametrize("text, ty_text, fires", PINNED)
def test_closed_form_fires_exactly_where_pinned(sig_walkthrough, monkeypatch, text, ty_text, fires):
    sig = sig_walkthrough
    t = elab_tm(sig, ("x",), parse_expression(text))
    ty = elab_ty(sig, ("x",), parse_type(ty_text))
    evals = 0
    eval_tm = nbe.eval_tm

    def counting(sig, env, term):
        nonlocal evals
        evals += term is t.scase
        return eval_tm(sig, env, term)

    # eval_tm recurses through the module's name, so every call is counted
    monkeypatch.setattr(nbe, "eval_tm", counting)
    nbe.eval_tm(sig, nbe.id_env(sig, X), t)
    monkeypatch.undo()
    # the probe evaluates the successor case once; unrolling, once per predecessor
    assert (evals == 1) == fires, evals
    _agree(sig, X, ty, t)


def test_nested_probes_keep_their_markers_apart(sig_empty):
    # ind(2; _. Nat; zero; p r. ind(2; _. Nat; r; q s. succ r)): the inner
    # case adds one to the outer r, not to s, so the inner elimination is
    # succ r and the outer one 2 (a structural comparison of markers gives 4)
    t = NatInd(numeral(2), Nat(), Zero(), NatInd(numeral(2), Nat(), Var(0), Succ(1, Var(2))))
    assert _agree(sig_empty, Context(), Nat(), t) == SuccNf(2, ZeroNf())


def test_closed_form_answers_large_scrutinees(sig_walkthrough):
    # two successors per predecessor over 10^9 predecessors of a neutral
    text = "ind(add 1000000000 x; _. Nat; 3; p r. succ succ r)"
    t = elab_tm(sig_walkthrough, ("x",), parse_expression(text))
    nf = nbe.normalize_tm(sig_walkthrough, X, Nat(), t)
    assert nf.__class__ is SuccNf and nf.k == 2 * 10**9
    assert nf.base == NatIndNe(VarNe(0), NatNf(), SuccNf(3, ZeroNf()), SuccNf(2, VarNe(0)))


def _add(a, b):
    """``add a b``, unfolded: ind(a; _. Nat; b; p r. succ r)."""
    return NatInd(a, Nat(), b, Succ(1, Var(0)))


def _cases(depth: int, nest: int):
    """Successor-case bodies over ``depth`` Nat variables (``r`` is Var(0),
    ``p`` Var(1), an outer ``r`` Var(2), ..., and ``x`` the last): ``succ^j
    v``, ``add a v``, and up to ``nest`` levels of inner eliminators over
    numerals 0-4 whose cases mention the outer variables. ``add``'s first
    argument is a numeral, a predecessor or ``x``, never a recursive result,
    so no case doubles its input and the reference and the oracle stay fast."""
    var = st.integers(0, depth - 1).map(Var)
    small = st.sampled_from([*range(1, depth - 1, 2), depth - 1]).map(Var)
    leaves = st.one_of(
        st.builds(lambda j, v: succ(Succ, j, v), st.integers(0, 3), var),
        st.builds(_add, st.one_of(small, st.integers(0, 4).map(numeral)), var),
    )
    if nest == 0:
        return leaves
    inner = st.builds(
        lambda n, z, s: NatInd(numeral(n), Nat(), z, s),
        st.integers(0, 4),
        _cases(depth, nest - 1),
        _cases(depth + 2, nest - 1),
    )
    return st.one_of(leaves, inner)


SCRUTINEES = st.one_of(
    st.integers(0, 4).map(numeral),
    st.integers(0, 3).map(lambda j: succ(Succ, j, Var(0))),
)


@settings(max_examples=1000, deadline=None)
@given(scrut=SCRUTINEES, zcase=_cases(1, 1), scase=_cases(3, 2))
@example(scrut=numeral(2), zcase=Zero(), scase=NatInd(numeral(2), Nat(), Var(0), Succ(1, Var(2))))
@example(scrut=numeral(3), zcase=Var(0), scase=Var(1))
def test_nested_eliminators_agree_with_the_reference_and_the_oracle(scrut, zcase, scase):
    _agree(Signature(), X, Nat(), NatInd(scrut, Nat(), zcase, scase))
