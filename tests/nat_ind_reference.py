"""The unrolled Nat eliminator: the successor case evaluated once per
predecessor, with no closed form. ``nbe._nat_ind`` must give the same
value on every input; ``normalize_tm`` here normalizes with this
eliminator in its place."""

from __future__ import annotations

from contextlib import contextmanager

from ttkernel import nbe
from ttkernel.domain import Closure, NNatInd, Neutral, Value
from ttkernel.syntax import Succ, Zero, succ


def nat_ind(sig, env, motive, zcase, scase, scrut: Value) -> Value:
    """Eliminate ``scrut``: the zero case (or the blocked neutral) once at
    the base of its successor chain, then the successor case once per
    predecessor, innermost first."""
    k, base = (scrut.k, scrut.base) if scrut.__class__ is Succ else (0, scrut)
    match base:
        case Zero():
            rec = nbe.eval_tm(sig, env, zcase)
        case Neutral():
            rec = NNatInd(base, Closure(env, motive), nbe.eval_tm(sig, env, zcase), Closure(env, scase))
        case _:
            raise AssertionError(f"eliminating a non-Nat value: {base!r}")
    for j in range(k):
        rec = nbe.eval_tm(sig, env + (succ(j, base), rec), scase)
    return rec


@contextmanager
def unrolled():
    """Evaluate with ``nat_ind`` in place of ``nbe._nat_ind``, nested
    eliminations included (``eval_tm`` looks the eliminator up by name)."""
    saved = nbe._nat_ind
    nbe._nat_ind = nat_ind
    try:
        yield
    finally:
        nbe._nat_ind = saved


def normalize_tm(sig, ctx, ty, t):
    with unrolled():
        return nbe.normalize_tm(sig, ctx, ty, t)
