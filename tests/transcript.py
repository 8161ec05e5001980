"""The CLI transcript: ``tt`` runs over the committed sources in
``tests/sources``, each recorded as its argument vector, exit code and
exact stdout and stderr, in ``tests/transcript.json``. A change to what
``tt`` prints shows as a diff of that file.

    python tests/transcript.py --write    regenerate the records
    python tests/transcript.py            list the records that differ

``tests/test_transcript.py`` replays every record in process through
``cli.main``. An argument vector names its source by file name alone; the
run resolves it in ``tests/sources``.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SOURCES = HERE / "sources"
RECORDS = HERE / "transcript.json"

IND_PI = r"\n. ind(n; k. Nat -> Nat; g2 zero; p r. \m. g2 (r m) p)"

# The generator's other signatures (``conftest``'s WALKTHROUGH and
# HIGHER_ORDER_SOURCES), each fuzzed and normalized by the oracle at an
# open term: a neutral eliminator, and heads whose arguments are eta-expanded.
_FUZZED = [
    ("walkthrough.tt", r"\n. mul n 2", "Nat -> Nat"),
    ("higher_order_0.tt", r"\v. q v", "(v : Nat -> Nat) -> C (v zero)"),
    ("higher_order_1.tt", r"\v. d (v zero) (q v)", "(v : Nat -> Nat) -> D (v zero) (q v)"),
    ("higher_order_2.tt", r"\a. m (\x. zero) a", "A -> C zero"),
]

# Files ``tt check`` rejects, one error each: unknown names in term and in
# type position, a type constant as a term, arity in a definition's type and
# in a telescope, two unknown names in one application, a motive mismatch,
# a parse error, and input too deep or too long.
_ILL_FORMED = [
    "unknown_term.tt",
    "unknown_type.tt",
    "type_in_term.tt",
    "arity_def.tt",
    "arity_postulate.tt",
    "two_unknown.tt",
    "motive.tt",
    "parse_error.tt",
    "deep_parens.tt",
    "long_numeral.tt",
]


def _runs() -> list[list[str]]:
    runs = []
    for seed in ("0", "3", "7"):
        for json_flag in ([], ["--json"]):
            runs.append(["fuzz", "crossval.tt", "--count", "300", "--seed", seed, *json_flag])
    for expr in ("h", "hh", "g2 1", "q (g2 1)", r"(\u. u 3) (g2 1)", "add 2 3"):
        runs.append(["normalize", "heads.tt", "-e", expr])
        runs.append(["normalize", "heads.tt", "-e", expr, "--oracle"])
    for oracle in ([], ["--oracle"]):
        runs.append(["normalize", "heads.tt", "-e", IND_PI, "-t", "Nat -> Nat -> Nat", *oracle])
        runs.append(["normalize", "heads.tt", "-e", f"({IND_PI}) 2", "-t", "Nat -> Nat", *oracle])
    runs += [
        ["normalize", "crossval.tt", "-e", "twice 3", "--oracle"],
        ["normalize", "crossval.tt", "-e", r"\n. h (twice n)", "-t", "(n : Nat) -> C (add n n)", "--oracle"],
        ["equal", "heads.tt", "-e", "h", "-e", r"\x. h x"],
        ["equal", "heads.tt", "-e", "hh", "-e", "h"],
        ["equal", "heads.tt", "-e", "g2 1", "-e", r"\x. g2 x 1"],
        ["equal", "heads.tt", "-e", "g2 1", "-e", r"\x. g2 x 1", "--json"],
        ["equal", "crossval.tt", "-e", "twice 2", "-e", "add 1 3"],
    ]
    for expr in (r"h (\x. x)", "f zero", "q h"):
        runs.append(["normalize", "heads.tt", "-e", expr])
        runs.append(["normalize", "heads.tt", "-e", expr, "--json"])
    for expr, ty in (
        ("zero zero", None),  # not_a_function
        ("h zero", "C"),  # arity_mismatch
        ("nope", None),  # unknown_name
        (r"\x. x", None),  # cannot_infer
        ("h (", None),  # parse_error
    ):
        runs.append(["normalize", "heads.tt", "-e", expr, *(["-t", ty] if ty else []), "--json"])
    runs += [
        ["check", "duplicate.tt", "--json"],  # duplicate_name
        ["check", "duplicate.tt"],
        ["check", "heads.tt"],
        ["check", "heads.tt", "--json"],
    ]
    for source, expr, ty in _FUZZED:
        for seed in ("0", "3"):
            for json_flag in ([], ["--json"]):
                runs.append(["fuzz", source, "--count", "300", "--seed", seed, *json_flag])
        runs.append(["normalize", source, "-e", expr, "-t", ty, "--oracle"])
    for source in _ILL_FORMED:
        runs.append(["check", source])
        runs.append(["check", source, "--json"])
    runs += [
        ["normalize", "crossval.tt", "-e", "add 200000 0", "--oracle"],  # fuel_exhausted
        ["normalize", "crossval.tt", "-e", "zero", "-e", "zero"],  # usage_error
        ["normalize", "crossval.tt", "-e", "zero", "-e", "zero", "--json"],
    ]
    return runs


def run(argv: list[str]) -> dict:
    """One record: ``tt argv`` run in process, its source found in ``SOURCES``."""
    from ttkernel.cli import main

    full = [argv[0], str(SOURCES / argv[1]), *argv[2:]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(full)
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def load() -> list[dict]:
    return json.loads(RECORDS.read_text(encoding="utf-8"))


def main(args: list[str]) -> int:
    records = [run(argv) for argv in _runs()]
    if args == ["--write"]:
        RECORDS.write_text(json.dumps(records, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
        print(f"wrote {len(records)} record(s) to {RECORDS.name}")
        return 0
    committed = load()
    stale = [r["argv"] for r, old in zip(records, committed) if r != old]
    if len(records) != len(committed):
        stale.append(f"{len(committed)} record(s) committed, {len(records)} run")
    for s in stale:
        print(f"differs: {s}")
    return 1 if stale else 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent / "src"))
    sys.exit(main(sys.argv[1:]))
