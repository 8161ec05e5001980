"""A reference computation that measures the host's speed, independent of
the kernel.

The benchmark's host shares its cores with other machines, and how fast
it runs the same code drifts by up to 1.8x within seconds and by up to
1.5x over minutes, for whole runs. The reference is a small normalizer
by evaluation for untyped lambda terms, the same kind of work as the
kernel's (small frozen dataclasses, closures, recursion), so it slows
down with the host much as the kernel does. Sampled evenly through a
run, its mean time gives the run's speed, and the benchmark reports
times scaled to a host on which ``run`` takes ``REFERENCE_S``. Nothing
here imports the kernel, so a change to the kernel cannot move the
reference.
"""

from __future__ import annotations

from dataclasses import dataclass

REFERENCE_S = 0.010  # reported times are for a host where run() takes this long
ROUNDS = 20  # of mul 12 12 on Church numerals: 6-16 ms on the baseline host
SIZE = 12


@dataclass(frozen=True)
class Var:
    index: int


@dataclass(frozen=True)
class Lam:
    body: object


@dataclass(frozen=True)
class App:
    fn: object
    arg: object


@dataclass(frozen=True)
class Closure:
    env: tuple
    body: object


@dataclass(frozen=True)
class Neutral:
    level: int
    args: tuple


def evaluate(env: tuple, t):
    if isinstance(t, Var):
        return env[-1 - t.index]
    if isinstance(t, Lam):
        return Closure(env, t.body)
    return apply(evaluate(env, t.fn), evaluate(env, t.arg))


def apply(f, a):
    if isinstance(f, Closure):
        return evaluate(f.env + (a,), f.body)
    return Neutral(f.level, f.args + (a,))


def reify(depth: int, v):
    if isinstance(v, Closure):
        return Lam(reify(depth + 1, apply(v, Neutral(depth, ()))))
    t = Var(depth - 1 - v.level)
    for a in v.args:
        t = App(t, reify(depth, a))
    return t


def church(n: int) -> Lam:
    body = Var(0)
    for _ in range(n):
        body = App(Var(1), body)
    return Lam(Lam(body))


MUL = Lam(Lam(Lam(App(Var(2), App(Var(1), Var(0))))))  # \m n f. m (n f)


def run() -> None:
    """Normalize ``mul 12 12`` on Church numerals ``ROUNDS`` times."""
    term, expected = App(App(MUL, church(SIZE)), church(SIZE)), church(SIZE * SIZE)
    for _ in range(ROUNDS):
        if reify(0, evaluate((), term)) != expected:
            raise RuntimeError("the calibration normalizer gave a wrong normal form")
