"""Acceptance suite.

Each test is one acceptance criterion, run at its stated budget, and
prints a PASS line (visible with ``pytest -s``). Failures surface as
ordinary assertion errors.
"""

import json
import random
import time

from ttkernel.cli import main
from ttkernel.domain import Closure, NVar
from ttkernel.gen import (
    GenerationStuck,
    case_problem,
    enum_terms,
    gen_context,
    gen_term,
    gen_type,
)
from ttkernel.nbe import (
    NEUTRAL,
    apply,
    eval_tm,
    eval_ty,
    id_env,
    nfty,
    normalize_tm,
    reify,
    reify_ne,
)
from ttkernel.normal import is_normal
from ttkernel.rewrite import oracle_equal, rw_normalize
from ttkernel.signature import Define
from ttkernel.surface import print_case
from ttkernel.syntax import (
    App,
    Const,
    Context,
    Lam,
    Nat,
    NatInd,
    Pi,
    Succ,
    TyConst,
    Var,
    Zero,
    alpha_eq,
    numeral,
    succ,
)

from enum_reference import PARTITION_TARGETS
from renamings import gen_renaming, rename

NN = Pi(Nat(), Nat())
A = TyConst("A")
NAT = Closure((), Nat())
A_CLO = Closure((), A)


def _report(n, label, started):
    print(f"\nACCEPTANCE {n} ({label}): PASS [{time.time() - started:.2f}s]")


# -- 1. golden computation rules ------------------------------------------


def test_criterion_1_beta_golden_suite(sig_empty, sig_abf):
    started = time.time()
    a_nf = Var(0)
    ctx_a = Context((A,))
    cases = [
        # eliminator on zero returns the zero case
        (sig_empty, Context(), Nat(),
         NatInd(Zero(), Nat(), numeral(1), Succ(1, Var(0))),
         Succ(1, Zero())),
        # eliminator on a successor steps through the successor case
        (sig_empty, Context(), Nat(),
         NatInd(numeral(1), Nat(), Zero(), Succ(1, Var(0))),
         Succ(1, Zero())),
        # 2 + 1 by iterated successor steps
        (sig_empty, Context(), Nat(),
         NatInd(numeral(2), Nat(), numeral(1), Succ(1, Var(0))),
         Succ(3, Zero())),
        # the successor case sees the predecessor
        (sig_empty, Context(), Nat(),
         NatInd(numeral(3), Nat(), Zero(), Var(1)),
         Succ(2, Zero())),
        # function beta
        (sig_empty, Context(), Nat(), App(Lam(Var(0)), Zero()), Zero()),
        (sig_empty, Context(), Nat(),
         App(Lam(Succ(1, Var(0))), numeral(2)),
         Succ(3, Zero())),
        # two nested betas (the K combinator)
        (sig_empty, Context(), Nat(),
         App(App(Lam(Lam(Var(1))), numeral(1)), Zero()),
         Succ(1, Zero())),
        # beta under a binder
        (sig_empty, Context(), NN,
         Lam(App(Lam(Var(0)), Var(0))),
         Lam(Var(0))),
        # a term constant is a blocked spine
        (sig_abf, ctx_a, TyConst("B", (Var(0),)),
         App(Const("f"), Var(0)),
         App(Const("f"), a_nf)),
        # a variable at a constant type is its own normal form
        (sig_abf, ctx_a, A, Var(0), a_nf),
        # a variable at an indexed constant type is its own normal form too
        (sig_abf, Context((A, TyConst("B", (Var(0),)))), TyConst("B", (Var(1),)),
         Var(0),
         Var(0)),
        # eta-expansion of a function variable
        (sig_empty, Context((NN,)), NN,
         Var(0),
         Lam(App(Var(1), Var(0)))),
        # a blocked application spine
        (sig_empty, Context((NN,)), Nat(),
         App(Var(0), numeral(1)),
         App(Var(0), Succ(1, Zero()))),
        # a blocked eliminator
        (sig_empty, Context((Nat(),)), Nat(),
         NatInd(Var(0), Nat(), Zero(), Var(0)),
         NatInd(Var(0), Nat(), Zero(), Var(0))),
        # iterating at a function-typed motive
        (sig_empty, Context(), NN,
         NatInd(numeral(1), NN, Lam(Var(0)), Lam(Succ(1, App(Var(1), Var(0))))),
         Lam(Succ(1, Var(0)))),
    ]
    assert len(cases) == 15
    for sig, ctx, ty, t, expected in cases:
        got = normalize_tm(sig, ctx, ty, t)
        assert got == expected, f"{t!r}: {got!r} != {expected!r}"
    assert time.time() - started < 1.0
    _report(1, "beta golden suite, 15 cases", started)


# -- 2. arithmetic ----------------------------------------------------------


def test_criterion_2_arithmetic(sig_walkthrough):
    started = time.time()
    sig = sig_walkthrough
    add = sig.find(Define, "add").body
    mul = sig.find(Define, "mul").body
    for m in range(9):
        for n in range(9):
            s = App(App(add, numeral(m)), numeral(n))
            p = App(App(mul, numeral(m)), numeral(n))
            s_nf = normalize_tm(sig, Context(), Nat(), s)
            p_nf = normalize_tm(sig, Context(), Nat(), p)
            assert s_nf == numeral(m + n)
            assert p_nf == numeral(m * n)
            # the rewriting oracle derives the same expectations
            assert rw_normalize(sig, Context(), Nat(), s) == numeral(m + n)
            assert rw_normalize(sig, Context(), Nat(), p) == numeral(m * n)
    assert time.time() - started < 5.0
    _report(2, "add/mul up to 8 against oracle-derived numerals", started)


# -- 3. soundness, idempotence, type preservation ---------------------------


def test_criterion_3_soundness_idempotence_preservation(sig_empty, sig_abf):
    started = time.time()
    rng = random.Random(20260808)
    ran = 0
    while ran < 1000:
        sig = sig_abf if rng.random() < 0.5 else sig_empty
        ctx = gen_context(sig, rng, max_len=3, size=4)
        ty = gen_type(sig, ctx, rng, size=4)
        try:
            t = gen_term(sig, ctx, ty, rng.randint(1, 12), rng)
        except GenerationStuck:
            continue
        ran += 1
        assert case_problem(sig, ctx, ty, t) is None, print_case(ctx, ty, t)
    assert time.time() - started < 60.0
    _report(3, f"{ran} generated terms: normal, sound, idempotent, preserved", started)


# -- 4. uniqueness / decidability -------------------------------------------


def test_criterion_4_uniqueness_by_exhaustive_partition(sig_abf):
    started = time.time()
    ctx = Context((Nat(),))
    terms = enum_terms(sig_abf, ctx, Nat(), 6)
    assert len(terms) > 100
    classes = {}
    for t in terms:
        classes.setdefault(rw_normalize(sig_abf, ctx, Nat(), t), []).append(t)
    # the evaluator is constant on every oracle class
    nf_of_class = {}
    for key, members in classes.items():
        nfs = {normalize_tm(sig_abf, ctx, Nat(), t) for t in members}
        assert len(nfs) == 1, f"class of {key!r} got several normal forms"
        nf_of_class[key] = nfs.pop()
    # and distinct across classes
    assert len(set(nf_of_class.values())) == len(nf_of_class)
    # decidability lines up pairwise on a sample of cross pairs
    reps = [members[0] for members in classes.values()][:20]
    for i, t in enumerate(reps):
        for u in reps[i + 1 :]:
            assert not oracle_equal(sig_abf, ctx, Nat(), t, u)
    assert time.time() - started < 120.0
    _report(
        4,
        f"{len(terms)} terms in {len(classes)} conversion classes, one NF each",
        started,
    )


def test_criterion_4_uniqueness_at_size_7(sig_crossval):
    # typed enumeration makes the size-7 corpus cheap
    started = time.time()
    total = 0
    for ctx, ty in PARTITION_TARGETS:
        classes = {}
        for t in enum_terms(sig_crossval, ctx, ty, 7):
            key = rw_normalize(sig_crossval, ctx, ty, t)
            classes.setdefault(key, set()).add(normalize_tm(sig_crossval, ctx, ty, t))
            total += 1
        assert all(len(nfs) == 1 for nfs in classes.values()), "a class got several normal forms"
        assert len(set().union(*classes.values())) == len(classes), "classes share a normal form"
    assert total == 606 + 192 + 26 + 31
    assert time.time() - started < 10.0
    _report(4, f"{total} terms of size <= 7 at the partition targets, one NF per class", started)


# -- 5. stability under renaming --------------------------------------------


def test_criterion_5_renaming_stability(sig_abf):
    started = time.time()
    rng = random.Random(17)
    done = 0
    seed = 0
    while done < 300:
        seed += 1
        try:
            src, tgt, r = gen_renaming(sig_abf, seed)
            ty = gen_type(sig_abf, src, rng, size=4)
            t = gen_term(sig_abf, src, ty, 8, rng)
        except GenerationStuck:
            continue
        done += 1
        lhs = rename(r, normalize_tm(sig_abf, src, ty, t))
        rhs = normalize_tm(sig_abf, tgt, rename(r, ty), rename(r, t))
        assert lhs == rhs, f"renaming {r.map} on {t!r}"
    assert time.time() - started < 30.0
    _report(5, f"{done} (term, renaming) pairs commute exactly", started)


# -- 6. the computation rules, on generated instantiations ------------------


def _nat_neutrals(sig, rng):
    """A context and 20+ neutral semantic values at Nat over it."""
    ctx = Context((NN, Nat(), Pi(Nat(), NN)))
    env = id_env(sig, ctx)
    depth = len(ctx)
    out = []
    for i in range(24):
        t = [Var(1), App(Var(2), numeral(i)), App(App(Var(0), numeral(i)), Var(1))][i % 3]
        v = eval_tm(sig, env, t)
        assert isinstance(v, NEUTRAL)
        out.append((ctx, env, depth, v))
    return out


def test_criterion_6_computation_rule_instances(sig_abf):
    started = time.time()
    sig = sig_abf
    rng = random.Random(23)

    # nfty at Nat and reify of zero, across depths
    for depth in range(20):
        assert nfty(sig, depth, NAT) == Nat()
        assert reify(sig, depth, NAT, Zero()) == Zero()

    # reify of successor values
    for i in range(20):
        ctx = gen_context(sig, rng, max_len=2, size=3)
        t = gen_term(sig, ctx, Nat(), 6, rng)
        v = eval_tm(sig, id_env(sig, ctx), t)
        d = len(ctx)
        assert reify(sig, d, NAT, succ(1, v)) == succ(1, reify(sig, d, NAT, v))

    # reify at Nat of a neutral is the neutral read back, which synthesizes Nat
    for ctx, env, depth, ne in _nat_neutrals(sig, rng):
        got, ty = reify_ne(sig, depth, ne)
        assert reify(sig, depth, NAT, ne) == got
        assert nfty(sig, depth, ty) == Nat()

    # nfty at function types splits into domain and fresh-variable codomain
    for i in range(20):
        ctx = gen_context(sig, rng, max_len=2, size=3)
        dom = gen_type(sig, ctx, rng, size=3)
        cod = gen_type(sig, ctx.extend(dom), rng, size=3)
        env = id_env(sig, ctx)
        d = len(ctx)
        fresh = NVar(d, Closure(env, dom))
        rhs = Pi(
            nfty(sig, d, Closure(env, dom)),
            nfty(sig, d + 1, Closure(env + (fresh,), cod)),
        )
        assert nfty(sig, d, eval_ty(sig, env, Pi(dom, cod))) == rhs

    # reify of an abstraction applies it to a fresh variable
    for i in range(20):
        ctx = gen_context(sig, rng, max_len=2, size=3)
        body = gen_term(sig, ctx.extend(Nat()), Nat(), 5, rng)
        env = id_env(sig, ctx)
        d = len(ctx)
        v = eval_tm(sig, env, Lam(body))
        fresh = NVar(d, Closure(env, Nat()))
        lhs = reify(sig, d, Closure(env, Pi(Nat(), Nat())), v)
        assert lhs == Lam(reify(sig, d + 1, Closure(env + (fresh,), Nat()), apply(sig, v, fresh)))

    # applying a neutral extends the spine, which synthesizes the codomain
    # at the argument and reads the argument back at the domain
    for ctx, env, depth, ne in _nat_neutrals(sig, rng):
        fn = env[0]  # level 0 is the function variable, at Nat -> Nat
        arg = eval_tm(sig, env, gen_term(sig, ctx, Nat(), 4, rng))
        lhs = apply(sig, fn, arg)
        assert lhs == App(fn, arg)
        want = App(Var(depth - 1), reify(sig, depth, NAT, arg))
        assert reify_ne(sig, depth, lhs) == (want, Closure((arg,), Nat()))
        assert reify(sig, depth, NAT, lhs) == want

    # the eliminator on a neutral is the blocked eliminator, at the motive
    # instantiated at the neutral
    for i, (ctx, env, depth, ne) in enumerate(_nat_neutrals(sig, rng)):
        motive = Nat() if i % 2 else Pi(Nat(), Nat())
        zcase = gen_term(sig, ctx, motive, 4, rng)
        ctx2 = ctx.extend(Nat()).extend(motive)
        from ttkernel.syntax import motive_succ_case

        scase = gen_term(sig, ctx2, motive_succ_case(motive), 4, rng)
        scrut = reify_ne(sig, depth, ne)[0]
        lhs = eval_tm(sig, env, NatInd(scrut, motive, zcase, scase))
        rhs = NatInd(ne, Closure(env, motive), eval_tm(sig, env, zcase), Closure(env, scase))
        sem_motive = Closure(env + (ne,), motive)
        assert reify(sig, depth, sem_motive, lhs) == reify(sig, depth, sem_motive, rhs)
        assert reify_ne(sig, depth, lhs)[1] == reify_ne(sig, depth, rhs)[1] == sem_motive

    # constant types: nfty, and reify of a variable at one, with and without indices
    ctx = Context((A, TyConst("B", (Var(0),)), Nat()))
    env = id_env(sig, ctx)
    depth = len(ctx)
    a0, b1 = env[0], env[1]
    for lvl in range(20):
        assert nfty(sig, depth + lvl, A_CLO) == TyConst("A", ())
        got = reify(sig, depth, A_CLO, a0)
        assert (got, A_CLO) == reify_ne(sig, depth, a0)
        bty = Closure((a0,), TyConst("B", (Var(0),)))
        assert nfty(sig, depth, bty) == TyConst("B", (reify(sig, depth, A_CLO, a0),))
        got2 = reify(sig, depth, bty, b1)
        assert (got2, bty) == reify_ne(sig, depth, b1)

    # a term constant applied evaluates to its spine, at its declared result
    for i in range(20):
        extra = Context((A,) * (1 + i % 3))
        env2 = id_env(sig, extra)
        arg = env2[i % len(env2)]
        lhs = eval_tm(sig, env2, App(Const("f"), Var(len(env2) - 1 - (i % len(env2)))))
        assert lhs == App(Const("f"), arg)
        assert reify_ne(sig, len(env2), lhs)[1] == Closure((arg,), TyConst("B", (Var(0),)))

    _report(6, "computation rules hold on 20+ instantiations each", started)


# -- 7. eta-longness and engine agreement -----------------------------------


def test_criterion_7_eta_longness_and_agreement(sig_empty, sig_abf):
    started = time.time()
    rng = random.Random(31)
    ran = 0
    while ran < 400:
        sig = sig_abf if rng.random() < 0.5 else sig_empty
        ctx = gen_context(sig, rng, max_len=3, size=4)
        ty = gen_type(sig, ctx, rng, size=4)
        try:
            t = gen_term(sig, ctx, ty, rng.randint(1, 10), rng)
        except GenerationStuck:
            continue
        ran += 1
        nf = normalize_tm(sig, ctx, ty, t)
        if isinstance(ty, Pi):
            assert isinstance(nf, Lam), f"non-lambda at function type: {t!r}"
        rewritten = rw_normalize(sig, ctx, ty, t)
        assert is_normal(sig, ctx, ty, rewritten)
        assert alpha_eq(nf, rewritten), f"engines disagree on {t!r}"
    # and over the exhaustive set of criterion 4
    ctx = Context((Nat(),))
    for t in enum_terms(sig_abf, ctx, Nat(), 5):
        nf = normalize_tm(sig_abf, ctx, Nat(), t)
        rewritten = rw_normalize(sig_abf, ctx, Nat(), t)
        assert is_normal(sig_abf, ctx, Nat(), rewritten)
        assert alpha_eq(nf, rewritten)
    _report(7, f"{ran} random + exhaustive cases eta-long, engines agree", started)


# -- 8. command-line walkthrough ---------------------------------------------


CONSTANTS_TT = "postulate A\npostulate B (x : A)\npostulate f : (x : A) -> B x\n"
ARITH_TT = (
    CONSTANTS_TT
    + "def add : Nat -> Nat -> Nat := \\m. \\n. ind(m; _. Nat; n; p r. succ r)\n"
    + "def mul : Nat -> Nat -> Nat := \\m. \\n. ind(m; _. Nat; zero; p r. add n r)\n"
)
BROKEN_TT = CONSTANTS_TT + "def oops : A := zero\n"


def _check_record(line: str):
    record = json.loads(line)
    assert set(record) == {"status", "output", "error"}
    assert isinstance(record["status"], str)
    assert record["output"] is None or isinstance(record["output"], str)
    if record["error"] is not None:
        assert set(record["error"]) == {"code", "line", "col"}
        assert isinstance(record["error"]["code"], str)
    return record


def test_criterion_8_cli_walkthrough(tmp_path, capsys):
    started = time.time()
    constants = tmp_path / "constants.tt"
    constants.write_text(CONSTANTS_TT)
    arith = tmp_path / "arith.tt"
    arith.write_text(ARITH_TT)
    broken = tmp_path / "broken.tt"
    broken.write_text(BROKEN_TT)

    # check: 0 on the two good files, 1 on the type error, 2 on a parse error
    assert main(["check", str(constants)]) == 0
    assert main(["check", str(arith)]) == 0
    assert main(["check", str(broken)]) == 1
    bad = tmp_path / "bad.tt"
    bad.write_text("postulate A :")
    assert main(["check", str(bad)]) == 2

    # normalize, with and without the oracle
    capsys.readouterr()
    assert main(["normalize", str(arith), "-e", "add 2 (mul 2 3)", "--oracle"]) == 0
    assert capsys.readouterr().out.strip() == "8"
    assert main(["normalize", str(arith), "-e", "f", "-t", "(x : A) -> B x"]) == 0
    assert capsys.readouterr().out.strip() == "\\x0. f x0"

    # equal: 0 for convertible, 3 for distinct
    assert main(["equal", str(arith), "-e", "add 1", "-e", "\\n. succ n", "-t", "Nat -> Nat"]) == 0
    assert main(["equal", str(arith), "-e", "add 1 1", "-e", "3"]) == 3

    # --json round-trips through the schema check on every status
    capsys.readouterr()
    assert main(["normalize", str(arith), "-e", "mul 4 5", "--json"]) == 0
    ok = _check_record(capsys.readouterr().out.strip())
    assert ok == {"status": "ok", "output": "20", "error": None}
    assert main(["check", str(broken), "--json"]) == 1
    rec = _check_record(capsys.readouterr().out.strip())
    assert rec["status"] == "type-error" and rec["error"]["code"] == "mismatch"
    assert main(["check", str(bad), "--json"]) == 2
    rec = _check_record(capsys.readouterr().out.strip())
    assert rec["status"] == "parse-error" and rec["error"]["line"] == 1
    assert main(["equal", str(arith), "-e", "0", "-e", "1", "--json"]) == 3
    rec = _check_record(capsys.readouterr().out.strip())
    assert rec["status"] == "not-equal"
    _report(8, "CLI walkthrough with documented exit codes and JSON schema", started)
