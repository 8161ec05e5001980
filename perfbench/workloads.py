"""The benchmark's workloads, requests and probe tier.

A request does what the matching ``tt`` command does, through the
kernel's public functions, and checks its answer against a reference
that does not come from the engine under test: Python integers for
arithmetic and definition chains, and for cross-validation the fuzz
properties and the uniqueness of normal forms per oracle class.

A request returns one entry per case it decided: ``None`` when the
answer is right, otherwise a description of the mismatch. The seed
draws a run's requests from a fixed ladder of sizes, so every run covers
the same size mix.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from functools import partial
from typing import Callable

from ttkernel import gen
from ttkernel.check import check, conv_tm, infer
from ttkernel.nbe import eval_tm, eval_ty, id_env, normalize_tm, reify
from ttkernel.normal import erase, is_normal
from ttkernel.rewrite import oracle_equal, rw_normalize
from ttkernel.signature import Define
from ttkernel.surface import elab_tm, elaborate, parse, parse_expression, print_nf
from ttkernel.syntax import Context, Nat, Pi, TyConst, Var, alpha_eq

from spans import Calls

ARITH = r"""
def add : Nat -> Nat -> Nat := \m. \n. ind(m; _. Nat; n; p r. succ r)
def mul : Nat -> Nat -> Nat := \m. \n. ind(m; _. Nat; zero; p r. add n r)
def exp : Nat -> Nat -> Nat := \b. \e. ind(e; _. Nat; 1; p r. mul b r)
"""

# Postulates, a Nat-indexed family and definitions: the signature the
# developer's cross-validation traffic runs over.
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

# Enumeration targets (context, type) of the partition; each costs
# 0.2-0.5 s to enumerate at size 6 and yields 18 to 180 terms.
PARTITION = (
    (Context((Nat(),)), Nat()),
    (Context(), Pi(Nat(), Nat())),
    (Context((TyConst("A"),)), TyConst("B", (Var(0),))),
    (Context((Nat(),)), TyConst("C", (Var(0),))),
)
ENUM_SIZE = 6
FUZZ_SIZE = 9  # of the tt fuzz command
# Fuzz cases per run and generator size, sizes 1 to 12, so that every
# run has the same size mix. The partition gives 280 cases, each slower
# than almost any fuzz case; with 960 fuzz cases the median falls at the
# fuzz cases' 65th percentile and the 90th percentile inside the
# partition's cases, both away from the boundary between the two kinds.
FUZZ_PER_SIZE = 80
FUZZ_SIZES = range(1, 13)
EXPS = ((2, 1), (2, 5), (2, 8), (2, 9), (3, 3), (3, 5), (3, 6), (5, 4), (30, 2))
# Comparing two normal forms recurses once per successor in dataclass
# equality, which exhausts the default recursion limit near 330. Equal
# requests and oracle cross-checks stay below this; the probe tier
# carries one of each above it.
DEEP_EQUALITY = 300


def chain(k: int) -> str:
    """Definitions d0..dk with d_j := \\n. d_{j-1} (d_{j-1} n), so dk n = n + 2^k."""
    lines = ["def d0 : Nat -> Nat := \\n. succ n"]
    lines += [f"def d{j} : Nat -> Nat := \\n. d{j - 1} (d{j - 1} n)" for j in range(1, k + 1)]
    return "\n".join(lines) + "\n"


@dataclass
class Request:
    label: str
    run: Callable[[Calls], list]
    memory: bool = True  # measured in the tracemalloc pass


# -- what the tt commands do -------------------------------------------------


def normalize(c: Calls, sig, ctx, ty, t):
    """``nbe.normalize_tm``; traced, its eval and reify halves are timed apart."""
    if c.tracer is None:
        return normalize_tm(sig, ctx, ty, t)
    env = c("nbe.eval", id_env, sig, ctx)
    value = c("nbe.eval", eval_tm, sig, env, t)
    sem_ty = c("nbe.eval", eval_ty, sig, env, ty)
    nf = c("nbe.reify", reify, sig, len(ctx), sem_ty, value)
    c.nodes("nbe.nf_nodes", nf)
    return nf


def _expression(c: Calls, sig, text: str):
    t = c("surface.elab", elab_tm, sig, (), c("surface.parse", parse_expression, text))
    c.nodes("surface.core_nodes", t)
    return t


def load(c: Calls, source: str):
    """``tt check``: parse and elaborate a file into a signature."""
    sig = c("surface.elab", elaborate, c("surface.parse", parse, source))
    c.nodes("surface.core_nodes", *(d.body for d in sig.decls if isinstance(d, Define)))
    return sig


def tt_normalize(c: Calls, sig, text: str, oracle: bool):
    """``tt normalize -e TEXT [--oracle]``: the printed normal form, and
    whether the oracle agrees (always true without ``--oracle``)."""
    t = _expression(c, sig, text)
    ty = c("check.infer", infer, sig, Context(), t)
    nf = normalize(c, sig, Context(), ty, t)
    out = c("surface.print", print_nf, nf)
    if not oracle:
        return out, True
    rewritten = c("rewrite.oracle", rw_normalize, sig, Context(), ty, t)
    return out, alpha_eq(c("normal.erase", erase, nf), rewritten)


def tt_equal(c: Calls, sig, left: str, right: str) -> bool:
    t = _expression(c, sig, left)
    ty = c("check.infer", infer, sig, Context(), t)
    u = _expression(c, sig, right)
    c("check.check", check, sig, Context(), u, ty)
    if c.tracer is None:
        return conv_tm(sig, Context(), ty, t, u)
    return normalize(c, sig, Context(), ty, t) == normalize(c, sig, Context(), ty, u)


# -- requests with their references -------------------------------------------


def normalize_request(sig, text: str, expected: int, oracle: bool = False) -> Request:
    def run(c):
        out, agree = tt_normalize(c, sig, text, oracle)
        if out != str(expected):
            return [f"{text}: printed {out}, expected {expected}"]
        return [None if agree else f"{text}: the oracle disagrees with NbE"]

    return Request(f"normalize {text}" + (" --oracle" if oracle else ""), run)


def equal_request(sig, left: str, right: str, expected: bool) -> Request:
    def run(c):
        verdict = tt_equal(c, sig, left, right)
        return [None if verdict == expected else f"{left} = {right}: got {verdict}"]

    return Request(f"equal {left} = {right}", run)


def chain_request(k: int, arg: int) -> Request:
    """``tt check`` on the chain d0..dk, then ``normalize dk arg``."""

    def run(c):
        sig = load(c, chain(k))
        if len(sig.decls) != k + 1:
            return [f"chain {k}: {len(sig.decls)} declarations"]
        out, _ = tt_normalize(c, sig, f"d{k} {arg}", False)
        expected = arg + 2**k
        return [None if out == str(expected) else f"d{k} {arg}: printed {out}, expected {expected}"]

    return Request(f"check chain {k}, normalize d{k} {arg}", run)


def fuzz_case(c: Calls, sig, seed: int, size: int):
    """One ``tt fuzz`` case: generate a term, then check the four properties."""
    rng = random.Random(seed)
    while True:
        c.count("gen.attempts", 1)
        ctx = c("gen.gen", gen.gen_context, sig, rng, 3, 4)
        ty = c("gen.gen", gen.gen_type, sig, ctx, rng, 4)
        try:
            t = c("gen.gen", gen.gen_term, sig, ctx, ty, size, rng)
            break
        except gen.GenerationStuck:
            continue
    c.count("gen.cases", 1)
    nf = normalize(c, sig, ctx, ty, t)
    back = c("normal.erase", erase, nf)
    if not c("normal.is_normal", is_normal, sig, ctx, ty, back):
        return [f"not normal: {t!r}"]
    if not c("rewrite.oracle", oracle_equal, sig, ctx, ty, back, t):
        return [f"oracle disagrees: {t!r}"]
    if normalize(c, sig, ctx, ty, back) != nf:
        return [f"not idempotent: {t!r}"]
    c("check.check", check, sig, ctx, back, ty)
    return [None]


def partition(c: Calls, sig, ctx, ty):
    """Every enumerated term is a case: each oracle class must get one
    normal form, and distinct classes distinct normal forms."""
    classes: dict = {}
    for t in c("gen.enum", gen.enum_terms, sig, ctx, ty, ENUM_SIZE):
        key = c("rewrite.oracle", rw_normalize, sig, ctx, ty, t)
        classes.setdefault(key, []).append(normalize(c, sig, ctx, ty, t))
    owners = Counter(nfs[0] for nfs in classes.values())
    results = []
    for key, nfs in classes.items():
        for nf in nfs:
            if nf != nfs[0]:
                results.append(f"class of {key!r} has several normal forms")
            elif owners[nf] > 1:
                results.append(f"class of {key!r} shares its normal form")
            else:
                results.append(None)
    return results


# -- workloads ---------------------------------------------------------------

# A part has a ``name`` and two methods: ``prelude(rng)``, the source
# elaborated at set-up, and ``requests(sig, rng)``, its distinct requests
# over that prelude's signature. A workload mixes parts that share a user:
# every round of a run repeats all of their requests, in a new seeded
# order. Its first part also has ``tt_command(rng)``, a ``tt`` invocation
# as file contents, arguments after the file, and expected stdout.


def _equation(rng, sig, left: str, value: int, right: str, right_value: int) -> Request:
    """``equal left right``; the seed makes a third of them off by one."""
    if rng.random() < 1 / 3:
        right, right_value = f"succ ({right})", right_value + 1
    return equal_request(sig, left, right, right_value == value)


class Arith:
    name = "arith"

    def prelude(self, rng):
        return ARITH

    def requests(self, sig, rng):
        # The seed splits each right-hand side differently; the split
        # hardly changes the cost, so the size mix is the same every run.
        requests = []
        for n in range(1, 31):
            requests.append(normalize_request(sig, f"mul {n} {n}", n * n))
            if n * n < DEEP_EQUALITY:
                k = rng.randint(0, n)
                right = f"add (mul {n} {k}) (mul {n} {n - k})"
                requests.append(_equation(rng, sig, f"mul {n} {n}", n * n, right, n * k + n * (n - k)))
        for b, e in EXPS:
            requests.append(normalize_request(sig, f"exp {b} {e}", b**e))
            if b**e < DEEP_EQUALITY:
                k = rng.randint(0, e)
                right = f"mul (exp {b} {k}) (exp {b} {e - k})"
                requests.append(_equation(rng, sig, f"exp {b} {e}", b**e, right, b**k * b ** (e - k)))
        for total in range(15, DEEP_EQUALITY, 15):
            a, b = rng.randint(0, total), rng.randint(0, total)
            right = f"add {b} {total - b}"
            requests.append(_equation(rng, sig, f"add {a} {total - a}", total, right, total))
        return requests

    def tt_command(self, rng):
        # checks the arithmetic and the chain d0..d8, then normalizes
        n = rng.randint(24, 28)
        return ARITH + chain(8), ["normalize", "-e", f"mul {n} {n}"], str(n * n)


class Crosscheck:
    name = "crosscheck"

    def prelude(self, rng):
        return ARITH

    def requests(self, sig, rng):
        # The same requests every run; the seed only orders the rounds.
        # tracemalloc slows the oracle ten-fold (exp 2 8: 8 s) and the peaks
        # of long reductions (under 100 KiB) stay far below a partition's
        # (2.7 MB), so the memory pass leaves out those above 0.2 s under it.
        requests = []
        for n in range(1, 18):
            requests.append(normalize_request(sig, f"mul {n} {n}", n * n, True))
            requests[-1].memory = n <= 12
        for e in range(9):
            requests.append(normalize_request(sig, f"exp 2 {e}", 2**e, True))
            requests[-1].memory = e <= 5
        return requests


class Defchain:
    name = "defchain"

    def prelude(self, rng):
        return chain(8)

    def requests(self, sig, rng):
        return [chain_request(k, rng.randint(0, 9)) for k in range(9) for _ in range(4)]


class Crossval:
    name = "crossval"

    def prelude(self, rng):
        return CROSSVAL

    def requests(self, sig, rng):
        requests = [
            Request(f"partition {ty!r} in {ctx!r}", partial(partition, sig=sig, ctx=ctx, ty=ty))
            for ctx, ty in PARTITION
        ]
        requests += [
            Request(f"fuzz case {seed} size {size}", partial(fuzz_case, sig=sig, seed=seed, size=size))
            for size in FUZZ_SIZES
            for seed in (rng.getrandbits(32) for _ in range(FUZZ_PER_SIZE))
        ]
        return requests

    def tt_command(self, rng):
        # A fixed fuzz seed: the work of 100 cases varies by 40% between
        # seeds, which would show as spread in tt_wall_ms.
        args = ["fuzz", "--count", "100", "--seed", "0", "--size", str(FUZZ_SIZE)]
        return CROSSVAL, args, "100 case(s), 0 failure(s)"


class Workload:
    """Parts in one closed loop; the first part gives the ``tt`` command."""

    def __init__(self, name: str, *parts):
        self.name, self.parts = name, parts

    def preludes(self, rng) -> list[str]:
        return [part.prelude(rng) for part in self.parts]

    def requests(self, sigs, rng) -> list[Request]:
        return [r for part, sig in zip(self.parts, sigs) for r in part.requests(sig, rng)]

    def tt_command(self, rng):
        return self.parts[0].tt_command(rng)


# The user's tt traffic without --oracle (NbE, checking, declaring), and
# the oracle traffic of --oracle requests and cross-validation (rewrite,
# gen, normal). Each runs a layer the other leaves idle or nearly so.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("user", Arith(), Defchain()),
        Workload("oracle", Crossval(), Crosscheck()),
    )
}


def probes(arith_sig) -> list[Request]:
    """Inputs that exhaust the interpreter's recursion limit at the seed
    state. Each run attempts them outside the timed stream, so they show
    in ``fail_ratio`` but not in latency."""
    nested = "succ (" * 600 + "zero" + ")" * 600
    return [
        normalize_request(arith_sig, "mul 35 35", 35 * 35),
        normalize_request(arith_sig, "mul 40 40", 40 * 40),
        normalize_request(arith_sig, "1200", 1200),
        Request("normalize 600 nested succ", normalize_request(arith_sig, nested, 600).run),
        chain_request(9, 0),
        normalize_request(arith_sig, "mul 20 20", 400, oracle=True),
        equal_request(arith_sig, "mul 20 20", "add (mul 20 10) (mul 20 10)", True),
    ]
