"""Command-line interface: exit codes and the JSON record shape."""

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ttkernel
from ttkernel import cli, gen
from ttkernel.cli import main
from ttkernel.syntax import Zero

from conftest import CROSSVAL, HIGHER_ORDER_SOURCES

GOOD = """
postulate A
postulate B (x : A)
postulate f : (x : A) -> B x
def add : Nat -> Nat -> Nat := \\m. \\n. ind(m; _. Nat; n; p r. succ r)
def mul : Nat -> Nat -> Nat := \\m. \\n. ind(m; _. Nat; zero; p r. add n r)
"""


@pytest.fixture()
def good(tmp_path):
    p = tmp_path / "good.tt"
    p.write_text(GOOD)
    return str(p)


@pytest.fixture()
def bad_parse(tmp_path):
    p = tmp_path / "bad.tt"
    p.write_text("postulate A :")
    return str(p)


@pytest.fixture()
def bad_type(tmp_path):
    p = tmp_path / "ill.tt"
    p.write_text("def x : Nat := \\y. y")
    return str(p)


def _json_of(capsys):
    record = json.loads(capsys.readouterr().out.strip())
    assert set(record) == {"status", "output", "error"}
    if record["error"] is not None:
        assert set(record["error"]) == {"code", "line", "col"}
    return record


def test_check_ok(good, capsys):
    assert main(["check", good]) == 0
    assert "5 declaration" in capsys.readouterr().out


def test_check_parse_error(bad_parse, capsys):
    assert main(["check", bad_parse]) == 2
    record_code = main(["check", bad_parse, "--json"])
    assert record_code == 2
    rec = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert rec["status"] == "parse-error"
    assert rec["error"]["code"] == "parse_error"
    assert rec["error"]["line"] == 1


def test_check_type_error(bad_type, capsys):
    assert main(["check", bad_type]) == 1
    assert main(["check", bad_type, "--json"]) == 1
    rec = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert rec["status"] == "type-error"
    assert rec["error"]["line"] is not None


def test_normalize(good, capsys):
    assert main(["normalize", good, "-e", "add 2 3"]) == 0
    assert capsys.readouterr().out.strip() == "5"


def test_normalize_with_type_and_oracle(good, capsys):
    assert main(["normalize", good, "-e", "\\x. x", "-t", "Nat -> Nat", "--oracle"]) == 0
    assert capsys.readouterr().out.strip() == "\\x0. x0"


def test_normalize_infer_lambda_fails(good, capsys):
    assert main(["normalize", good, "-e", "\\x. x"]) == 1


def test_normalize_json(good, capsys):
    assert main(["normalize", good, "-e", "mul 4 5", "--json"]) == 0
    rec = _json_of(capsys)
    assert rec == {"status": "ok", "output": "20", "error": None}


def test_a_comment_in_an_expression_ends_at_a_bare_cr(good, capsys):
    assert main(["normalize", good, "-e", "add 1 -- one\r 2"]) == 0
    assert capsys.readouterr().out.strip() == "3"


def test_check_skips_a_leading_byte_order_mark(tmp_path, capsys):
    p = tmp_path / "bom.tt"
    p.write_text("\ufeff" + GOOD, encoding="utf-8")
    assert main(["check", str(p)]) == 0
    assert capsys.readouterr().out.strip() == "ok: 5 declaration(s)"
    assert main(["check", str(p), "--json"]) == 0
    assert _json_of(capsys) == {"status": "ok", "output": "ok: 5 declaration(s)", "error": None}


def test_equal(good):
    assert main(["equal", good, "-e", "add 1 1", "-e", "2"]) == 0
    assert main(["equal", good, "-e", "add 1 1", "-e", "3"]) == 3
    assert main(["equal", good, "-e", "\\m. \\n. add m n", "-e", "add", "-t", "Nat -> Nat -> Nat"]) == 0


def test_equal_eta(good):
    assert main(["equal", good, "-e", "f", "-e", "\\a. f a", "-t", "(x : A) -> B x"]) == 0


def test_fuzz(good, capsys):
    assert main(["fuzz", good, "--count", "25", "--seed", "11", "--size", "7"]) == 0
    assert "0 failure(s)" in capsys.readouterr().out


def test_fuzz_crossval_as_benchmarked(tmp_path, capsys):
    # the tt command the benchmark's oracle workload times, with its output
    (tmp_path / "crossval.tt").write_text(CROSSVAL)
    argv = ["fuzz", str(tmp_path / "crossval.tt"), "--count", "100", "--seed", "0", "--size", "9"]
    assert main(argv) == 0
    assert capsys.readouterr() == ("100 case(s), 0 failure(s)\n", "")


@pytest.mark.parametrize("option", ["--count", "--size"])
def test_fuzz_rejects_a_negative_count_or_size(good, option, capsys):
    assert main(["fuzz", good, option, "-1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error[usage_error]: argument {option}: must not be negative, got -1\n")
    assert main(["fuzz", good, option, "0"]) == 0


def test_fuzz_rejects_a_non_integer_count(good, capsys):
    assert main(["fuzz", good, "--count", "abc"]) == 2
    assert "error[usage_error]: argument --count: not an integer: 'abc'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["normalize", "FILE"],
        ["fuzz", "FILE", "--count", "-1"],
        ["normalize", "FILE", "-e", "-x"],
        ["normalize", "FILE", "-e", "zero", "-e", "zero"],
        ["normalize", "FILE", "-e", "\\x. x", "-t", "Nat -> Nat", "-t", "A -> A"],
        ["equal", "FILE", "-e", "zero", "-e", "zero", "-t", "Nat", "-t", "Nat"],
        ["fuzz", "FILE", "--count", "3", "--count", "5"],
        ["fuzz", "FILE", "--seed", "1", "--seed=1"],
        ["fuzz", "FILE", "--size", "4", "--si", "4"],
    ],
    ids=[
        "missing -e",
        "negative count",
        "option as -e text",
        "second -e",
        "second -t to normalize",
        "second -t to equal",
        "second --count",
        "second --seed",
        "second --size",
    ],
)
def test_usage_error_is_a_json_record(good, argv, capsys):
    argv = [good if a == "FILE" else a for a in argv]
    assert main(argv + ["--json"]) == 2
    record = {"code": "usage_error", "line": None, "col": None}
    assert _json_of(capsys) == {"status": "parse-error", "output": None, "error": record}
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "option, value",
    [("-t", "Nat"), ("--type", "Nat"), ("-e", "zero"), ("--count", "3"), ("--seed", "0"), ("--size", "4")],
)
def test_a_single_valued_option_given_twice_is_a_usage_error(good, option, value, capsys):
    command = "fuzz" if option in ("--count", "--seed", "--size") else "normalize"
    argv = [command, good] + (["-e", "zero"] if option in ("-t", "--type") else [])
    assert main(argv + [option, value, option, value]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error[usage_error]: argument ") and "given more than once\n" in err


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["fuzz", "--help"])
    assert exit_.value.code == 0
    assert capsys.readouterr().out.startswith("usage: tt fuzz")


def test_normalize_reports_an_oracle_mismatch(good, monkeypatch, capsys):
    monkeypatch.setattr(cli, "rw_normalize", lambda *args: Zero())
    assert main(["normalize", good, "-e", "add 2 3", "--oracle"]) == 3
    assert capsys.readouterr() == ("nbe:    5\noracle: zero\n", "")
    assert main(["normalize", good, "-e", "add 2 3", "--oracle", "--json"]) == 3
    record = {"status": "oracle-mismatch", "output": "nbe:    5\noracle: zero", "error": None}
    assert _json_of(capsys) == record


def test_printed_normal_form_reparses_at_any_length(good, capsys):
    # successors over a variable print as one run of succ, with no nesting
    assert main(["normalize", good, "-e", "\\x. add 5000 x", "-t", "Nat -> Nat"]) == 0
    text = capsys.readouterr().out.strip()
    assert text == "\\x0. " + "succ " * 5000 + "x0"
    assert main(["equal", good, "-e", text, "-e", "\\x. add 5000 x", "-t", "Nat -> Nat"]) == 0


def test_fuel_env(good, monkeypatch, capsys):
    monkeypatch.setenv("TT_FUEL", "1")
    assert main(["normalize", good, "-e", "mul 4 5", "--oracle"]) == 1
    rec_code = main(["normalize", good, "-e", "mul 4 5", "--oracle", "--json"])
    assert rec_code == 1
    rec = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert rec["error"]["code"] == "fuel_exhausted"
    assert rec["status"] == "error"
    monkeypatch.setenv("TT_FUEL", "100000")
    assert main(["normalize", good, "-e", "mul 4 5", "--oracle"]) == 0


# README's arithmetic: add and mul as declared there, and exp over them
ARITH = GOOD + "def exp : Nat -> Nat -> Nat := \\b. \\e. ind(e; _. Nat; 1; p r. mul b r)\n"


@pytest.mark.parametrize(
    "expr, value",
    [
        ("add 1000000000 1000000000", 2_000_000_000),
        ("mul 123456789 987654321", 123456789 * 987654321),
        ("exp 2 64", 2**64),
    ],
)
def test_large_arithmetic_normalizes_at_once(tmp_path, capsys, expr, value):
    # NbE iterates add's and mul's successor cases in closed form
    p = tmp_path / "arith.tt"
    p.write_text(ARITH)
    start = time.perf_counter()
    assert main(["normalize", str(p), "-e", expr]) == 0
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().out.strip() == str(value)


def test_oracle_still_spends_fuel_on_large_arithmetic(good, capsys):
    # the oracle counts every iota step, so 200,000 of them exceed its budget
    assert main(["normalize", good, "-e", "add 200000 0", "--oracle", "--json"]) == 1
    rec = _json_of(capsys)
    assert rec["status"] == "error" and rec["error"]["code"] == "fuel_exhausted"


def test_fuel_env_malformed(good, monkeypatch, capsys):
    # more digits than int() reads is malformed too, not a traceback
    for bad in ("abc", "-3", "", "9" * 5000):
        monkeypatch.setenv("TT_FUEL", bad)
        assert main(["normalize", good, "-e", "add 1 2", "--oracle", "--json"]) == 1
        rec = _json_of(capsys)
        assert rec["status"] == "error"
        assert rec["error"]["code"] == "bad_fuel"
    assert main(["normalize", good, "-e", "add 1 2", "--oracle"]) == 1
    assert capsys.readouterr().err == "error[bad_fuel]: TT_FUEL has 5,000 digits, more than 4,300\n"


@pytest.mark.parametrize(
    ("expr", "want"),
    [
        ("add", "\\x0. \\x1. ind(x0; x2. Nat; x1; x2 x3. succ x3)"),
        ("add 1", "\\x0. succ x0"),
        ("f", "\\x0. f x0"),
    ],
)
def test_a_constant_given_too_few_arguments_infers(good, capsys, expr, want):
    # a definition or a term constant as a function has the Pi type of its
    # missing parameters, and the oracle agrees with its normal form
    assert main(["normalize", good, "-e", expr, "--oracle"]) == 0
    assert capsys.readouterr() == (want + "\n", "")
    assert main(["normalize", good, "-e", expr, "--json"]) == 0
    assert _json_of(capsys) == {"status": "ok", "output": want, "error": None}


def test_an_ill_typed_argument_is_blamed_where_it_is(good, capsys):
    # the argument f (\y. y) is checked against add's parameter type, not
    # inside add's body: the lambda given for f's parameter A is the fault
    argv = ["normalize", good, "-e", "add zero (f (\\y. y))"]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", "error[mismatch]: function literal checked against A\n")
    assert main(argv + ["--json"]) == 1
    error = {"code": "mismatch", "line": None, "col": None}
    assert _json_of(capsys) == {"status": "type-error", "output": None, "error": error}


# 20,000 definitions, each the successor of the one before: checking
# them is linear, and neither engine recurses once per definition
LONG_CHAIN = "def c0 : Nat := zero\n" + "".join(f"def c{k} : Nat := succ c{k - 1}\n" for k in range(1, 20000))
LONG_CHAIN_RUNS = {
    "check": (["check"], "ok: 20000 declaration(s)"),
    "normalize": (["normalize", "-e", "c19999"], "19999"),
    "normalize --oracle": (["normalize", "-e", "c19999", "--oracle"], "19999"),
}


@pytest.mark.parametrize("case", LONG_CHAIN_RUNS)
def test_a_long_chain_of_definitions(tmp_path, capsys, case):
    (command, *rest), want = LONG_CHAIN_RUNS[case]
    (tmp_path / "long.tt").write_text(LONG_CHAIN)
    assert main([command, str(tmp_path / "long.tt"), *rest]) == 0
    assert capsys.readouterr() == (want + "\n", "")


def test_normalize_infers_beta_redex(good, capsys):
    assert main(["normalize", good, "-e", "(\\x. x) zero"]) == 0
    assert capsys.readouterr().out.strip() == "zero"


def test_equal_requires_two_expressions(good, capsys):
    assert main(["equal", good, "-e", "zero"]) == 2
    # a missing or extra -e is a usage error, as every malformed command line is
    for exprs in (["zero"], ["zero"] * 3):
        argv = ["equal", good, *(a for e in exprs for a in ("-e", e)), "--json"]
        assert main(argv) == 2
        rec = _json_of(capsys)
        assert rec["status"] == "parse-error"
        assert rec["error"]["code"] == "usage_error"


def test_normalize_parse_error_in_expression(good):
    assert main(["normalize", good, "-e", "succ )"]) == 2


def test_normalize_unknown_identifier(good, capsys):
    assert main(["normalize", good, "-e", "nope"]) == 1
    capsys.readouterr()
    assert main(["normalize", good, "-e", "nope", "--json"]) == 1
    assert _json_of(capsys)["status"] == "type-error"


def test_missing_file_is_an_error(tmp_path, capsys):
    assert main(["check", str(tmp_path / "absent.tt"), "--json"]) == 1
    assert _json_of(capsys)["status"] == "error"


UNREADABLE = {  # how to make the file, then the exit code, status and error code
    "directory": (lambda p: p.mkdir(), 1, "error", "error"),
    "not UTF-8": (lambda p: p.write_bytes(b"\xff\xfe"), 2, "parse-error", "parse_error"),
}


@pytest.mark.parametrize("case", UNREADABLE)
def test_unreadable_file_is_an_error(tmp_path, capsys, case):
    make, exit_code, status, code = UNREADABLE[case]
    make(tmp_path / "input.tt")
    argv = ["check", str(tmp_path / "input.tt")]
    assert main(argv + ["--json"]) == exit_code
    error = {"code": code, "line": None, "col": None}
    assert _json_of(capsys) == {"status": status, "output": None, "error": error}
    assert main(argv) == exit_code
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error[{code}]: ") and "input.tt" in err


def test_fuzz_failure_is_replayable(good, monkeypatch, capsys):
    monkeypatch.setattr(gen, "oracle_equal", lambda *args: False)
    assert main(["fuzz", good, "--count", "3", "--seed", "0", "--json"]) == 1
    rec = _json_of(capsys)
    assert rec["status"] == "error"
    lines = rec["output"].splitlines()
    assert lines[0] == "3 case(s), 3 failure(s)"
    for i, line in enumerate(lines[1:]):
        assert line.startswith(f"seed 0 case {i}: oracle disagrees: ")
        assert "|- " in line
        assert "App(" not in line and "Var(" not in line


CHAIN = "def d0 : Nat -> Nat := \\n. succ n\n" + "".join(
    f"def d{j} : Nat -> Nat := \\n. d{j - 1} (d{j - 1} n)\n" for j in range(1, 10)
)
DEEP = {
    "mul 40 40": (["normalize", "-e", "mul 40 40"], "1600"),
    "1200": (["normalize", "-e", "1200"], "1200"),
    "mul 100 100": (["normalize", "-e", "mul 100 100"], "10000"),
    "mul 100 100 --oracle": (["normalize", "-e", "mul 100 100", "--oracle"], "10000"),
    "equal mul 40 40": (["equal", "-e", "mul 40 40", "-e", "add (mul 40 20) (mul 40 20)"], "equal"),
    "check chain d0..d9": (["check"], "ok: 10 declaration(s)"),
}


@pytest.mark.parametrize("case", DEEP)
def test_deep_input_works(good, tmp_path, capsys, case):
    # a numeral is one node, so these fit the default recursion limit
    (command, *rest), want = DEEP[case]
    (tmp_path / "chain.tt").write_text(CHAIN)
    argv = [command, str(tmp_path / "chain.tt") if command == "check" else good, *rest]
    assert main(argv + ["--json"]) == 0
    assert _json_of(capsys) == {"status": "ok", "output": want, "error": None}
    assert main(argv) == 0
    assert capsys.readouterr() == (want + "\n", "")


@pytest.mark.parametrize("case", ["600 nested succ"])
def test_deep_input_is_resource_exhausted(good, capsys, case):
    # the parser still recurses once per parenthesis
    argv = ["normalize", good, "-e", "succ (" * 600 + "zero" + ")" * 600]
    assert main(argv + ["--json"]) == 4
    out, err = capsys.readouterr()
    record = {"code": "resource_exhausted", "line": None, "col": None}
    assert err == "" and json.loads(out) == {"status": "error", "output": None, "error": record}
    assert main(argv) == 4
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error[resource_exhausted]: ") and "Traceback" not in err


LONG = "7" * 4301  # one digit more than int() converts


@pytest.mark.parametrize("where", ["-e", "FILE"])
def test_long_numeral_is_resource_exhausted(good, tmp_path, capsys, where):
    if where == "-e":
        argv, line, col = ["normalize", good, "-e", "add 1 " + LONG], 1, 7
    else:
        (tmp_path / "long.tt").write_text(f"postulate A\ndef n : Nat := {LONG}\n")
        argv, line, col = ["check", str(tmp_path / "long.tt")], 2, 16
    assert main(argv + ["--json"]) == 4
    record = {"code": "resource_exhausted", "line": line, "col": col}
    assert _json_of(capsys) == {"status": "error", "output": None, "error": record}
    assert main(argv) == 4
    out, err = capsys.readouterr()
    assert out == "" and err == f"error[resource_exhausted]: {line}:{col}: numeral of 4301 digits is too long\n"


# Random token strings through tt, as a file and as -e text over postulates
# only, so that no drawn term computes for long; LONG is past int()'s limit.
TOKENS = [
    "postulate", "def", "Nat", "zero", "succ", "ind", "fun", ":=", "->", "=>", "(", ")", ":", ";",
    ".", "\\", "_", "A", "B", "f", "C", "h", "x", "y", "0", "7", LONG, "\n",
]
POSTULATES = "postulate A\npostulate B (x : A)\npostulate f : (x : A) -> B x\npostulate C (n : Nat)\n"


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from(TOKENS), max_size=24), st.sampled_from(["FILE", "--expr=", "-e"]))
@example(["def", "n", ":", "Nat", ":=", LONG], "FILE")
@example(["succ", LONG], "--expr=")
@example(["->"], "-e")  # -e takes an option-like text for no argument: a usage error
def test_token_strings_give_one_json_record(tmp_path_factory, tokens, where):
    text = " ".join(tokens)
    path = tmp_path_factory.getbasetemp() / "tokens.tt"
    path.write_text(text if where == "FILE" else POSTULATES)
    if where == "FILE":
        argv = ["check", str(path)]
    else:
        argv = ["normalize", str(path)] + ([where + text] if where == "--expr=" else [where, text])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv + ["--json"])
    assert err.getvalue() == "" and out.getvalue().count("\n") == 1
    record = json.loads(out.getvalue())
    assert set(record) == {"status", "output", "error"} and code in (0, 1, 2, 3, 4)
    assert (record["error"] is None) == (code == 0)
    if code:
        assert set(record["error"]) == {"code", "line", "col"}


def test_fuzz_higher_order_postulate(tmp_path, capsys):
    for source in HIGHER_ORDER_SOURCES:
        (tmp_path / "ho.tt").write_text(source)
        argv = ["fuzz", str(tmp_path / "ho.tt"), "--count", "200", "--seed", "0", "--size", "9"]
        assert main(argv) == 0, source
        assert capsys.readouterr() == ("200 case(s), 0 failure(s)\n", "")
        assert main(argv + ["--json"]) == 0
        assert _json_of(capsys) == {"status": "ok", "output": "200 case(s), 0 failure(s)", "error": None}


# Characters outside the token classes: superscripts and fractions are
# numeric but no decimal digits. Each goes in as -e text and as a def body,
# except the NUL byte, which argv cannot carry.
ODD_TEXT = ["²", "1²", "x²", "½x", "\ufeff", "\f", "\x00"]
ODD_INPUTS = [("-e", text) for text in ODD_TEXT if text != "\x00"] + [("FILE", text) for text in ODD_TEXT]


@pytest.mark.parametrize(("where", "text"), ODD_INPUTS)
def test_odd_characters_are_a_kernel_error(good, tmp_path, capsys, where, text):
    if where == "-e":
        argv = ["normalize", good, "-e", text]
    else:
        (tmp_path / "odd.tt").write_text(f"def x : Nat := {text}\n", encoding="utf-8")
        argv = ["check", str(tmp_path / "odd.tt")]
    code = main(argv)
    out, err = capsys.readouterr()
    assert code in (1, 2) and out == ""
    assert err.startswith("error[") and err.count("\n") == 1 and "Traceback" not in err
    assert main(argv + ["--json"]) == code
    record = _json_of(capsys)
    assert record["status"] in ("parse-error", "type-error") and record["error"]["code"]


def _tt_process(*argv, after="", timeout=120, stdout=subprocess.PIPE):
    """Run ``tt`` in a fresh interpreter; ``after`` runs once it has returned."""
    src = str(Path(ttkernel.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    code = f"import sys\nfrom ttkernel.cli import main\ncode = main(sys.argv[1:])\n{after}\nsys.exit(code)"
    return subprocess.run(
        [sys.executable, "-c", code, *argv],
        env=env, stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=timeout,
    )


def test_huge_numeral_through_tt(good):
    done = _tt_process("normalize", good, "-e", "1000000000", "--oracle", "--json")
    assert done.returncode == 0 and done.stderr == ""
    assert json.loads(done.stdout) == {"status": "ok", "output": "1000000000", "error": None}


def test_normalize_leaves_the_generators_unimported(good):
    # only tt fuzz needs gen, so the other commands start without it
    done = _tt_process("normalize", good, "-e", "mul 3 4", after="print('ttkernel.gen' in sys.modules)")
    assert done.returncode == 0 and done.stdout.splitlines() == ["12", "False"]


def test_a_normal_form_under_900_binders_prints(tmp_path):
    # readback and printing take no more frames per binder than parsing its
    # type takes per arrow, so it prints wherever it checks
    n = 900
    source = "def big : " + " -> ".join(["Nat"] * (n + 1)) + " := " + "\\x. " * n + "x\n"
    (tmp_path / "big.tt").write_text(source)
    want = "".join(f"\\x{i}. " for i in range(n)) + f"x{n - 1}"
    done = _tt_process("check", str(tmp_path / "big.tt"))
    assert done.returncode == 0 and done.stdout == "ok: 1 declaration(s)\n"
    for oracle in ((), ("--oracle",)):
        done = _tt_process("normalize", str(tmp_path / "big.tt"), "-e", "big", *oracle)
        assert done.returncode == 0 and done.stderr == "" and done.stdout == want + "\n"


@pytest.mark.parametrize("args", [["mul 3 4"], ["mul 3 4", "--json"], ["nosuch", "--json"]])
def test_a_closed_pipe_ends_tt_quietly(good, args):
    # the pipe's read end is closed before tt writes its output, or its
    # error record, so the write fails
    read, write = os.pipe()
    os.close(read)
    try:
        done = _tt_process("normalize", good, "-e", *args, stdout=write)
    finally:
        os.close(write)
    assert done.returncode == cli.CLOSED_PIPE == 141 and done.stderr == ""
