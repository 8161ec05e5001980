"""Command-line interface.

    tt check FILE                 exit 0 ok / 1 type error / 2 parse error
    tt normalize FILE -e EXPR [-t TYPE] [--oracle]
                                  prints the normal form of its one
                                  EXPR; with --oracle also rewrites
                                  independently, exit 3 on disagreement
    tt equal FILE -e E1 -e E2 [-t TYPE]
                                  exit 0 equal / 3 not equal
    tt fuzz FILE [--count N] [--seed S] [--size K]
                                  judges N random cases over FILE's
                                  signature by gen.case_problem

Any command exits 4 (code resource_exhausted) on input too deep or too
large for the recursion limit, memory or int() (a numeral of more than
4,300 digits), and 2 (code usage_error) on a command line it cannot
parse; it accepts --json and emits {status, output, error{code, line,
col}}. A reader that closes stdout's pipe early ends it quietly, with exit
141 (what a shell reports for a process SIGPIPE ended). The oracle's
budget is 100,000 beta/iota steps; large arithmetic can exhaust it (code
fuel_exhausted, exit 1), and the environment variable TT_FUEL raises it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .check import check, check_ty, conv_tm, infer
from .errors import BadFuel, KernelError, ParseError, ResourceExhausted, UsageError
from .nbe import normalize_tm
from .rewrite import DEFAULT_FUEL, rw_normalize
from .signature import Signature
from .surface import (
    elab_tm,
    elab_ty,
    elaborate,
    parse,
    parse_expression,
    parse_type,
    print_case,
    print_tm,
)
from .syntax import Context, alpha_eq

CLOSED_PIPE = 141  # 128 + SIGPIPE


def _fuel() -> int:
    text = os.environ.get("TT_FUEL")
    if text is None:
        return DEFAULT_FUEL
    if not text.strip().isdecimal():
        raise BadFuel(f"TT_FUEL must be a non-negative integer, got {text!r}")
    try:
        return int(text)
    except ValueError:  # int() reads at most 4,300 digits
        raise BadFuel(f"TT_FUEL has {len(text.strip()):,} digits, more than 4,300") from None


def _non_negative(text: str) -> int:
    """argparse type of --count and --size: a non-negative integer."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {n}")
    return n


class _Once(argparse.Action):
    """Stores an argument's one value; a second copy of it is a usage error,
    where argparse would keep the last one silently."""

    given = False

    def __call__(self, parser, namespace, values, option_string=None):
        if self.given:
            raise argparse.ArgumentError(self, "given more than once")
        self.given = True
        setattr(namespace, self.dest, values)


class _Parser(argparse.ArgumentParser):
    """Raises a usage error instead of exiting, so that ``main`` reports it
    as it does every other error, as a ``--json`` record too. Every argument
    that takes a value and names no action is stored by ``_Once``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.register("action", None, _Once)

    def error(self, message):
        raise UsageError(f"{message}\n{self.format_usage().rstrip()}")


def _emit(args, status: str, output: str | None, error: KernelError | None, code: int) -> int:
    if args.json:
        record = {
            "status": status,
            "output": output,
            "error": None
            if error is None
            else {"code": error.code, "line": error.line, "col": error.col},
        }
        print(json.dumps(record))
    else:
        if output is not None:
            print(output)
        if error is not None:
            where = f"{error.line}:{error.col}: " if error.line is not None else ""
            print(f"error[{error.code}]: {where}{error}", file=sys.stderr)
    return code


def _load(path: str) -> Signature:
    with open(path, encoding="utf-8-sig") as fh:  # a leading byte-order mark is no token
        try:
            source = fh.read()
        except UnicodeDecodeError as e:
            raise ParseError(f"{path}: not UTF-8 text ({e.reason} at byte {e.start})") from None
    return elaborate(parse(source))


def _expr_at(sig, text, ty_text):
    t = elab_tm(sig, (), parse_expression(text))
    if ty_text is not None:
        ty = elab_ty(sig, (), parse_type(ty_text))
        check_ty(sig, Context(), ty)
        check(sig, Context(), t, ty)
    else:
        ty = infer(sig, Context(), t)
    return t, ty


def _cmd_check(args) -> int:
    sig = _load(args.file)
    return _emit(args, "ok", f"ok: {len(sig.decls)} declaration(s)", None, 0)


def _cmd_normalize(args) -> int:
    sig = _load(args.file)
    t, ty = _expr_at(sig, args.expr, args.type)
    nf = normalize_tm(sig, Context(), ty, t)
    out = print_tm(nf)
    if args.oracle:
        rewritten = rw_normalize(sig, Context(), ty, t, _fuel())
        if not alpha_eq(nf, rewritten):
            both = f"nbe:    {out}\noracle: {print_tm(rewritten)}"
            return _emit(args, "oracle-mismatch", both, None, 3)
    return _emit(args, "ok", out, None, 0)


def _cmd_equal(args) -> int:
    sig = _load(args.file)
    if len(args.expr) != 2:
        raise UsageError("equal needs exactly two -e expressions")
    t, ty = _expr_at(sig, args.expr[0], args.type)
    u = elab_tm(sig, (), parse_expression(args.expr[1]))
    check(sig, Context(), u, ty)
    if conv_tm(sig, Context(), ty, t, u):
        return _emit(args, "ok", "equal", None, 0)
    return _emit(args, "not-equal", "not equal", None, 3)


def _cmd_fuzz(args) -> int:
    from . import gen  # only fuzzing needs the generators: keep them out of start-up

    sig = _load(args.file)
    fuel = _fuel()
    ran, failures = 0, []
    for ctx, ty, t in gen.gen_cases(sig, args.seed, args.count, args.size):
        problem = gen.case_problem(sig, ctx, ty, t, fuel)
        if problem is not None:
            failures.append(f"seed {args.seed} case {ran}: {problem}: {print_case(ctx, ty, t)}")
        ran += 1
    summary = f"{ran} case(s), {len(failures)} failure(s)"
    if failures:
        detail = summary + "\n" + "\n".join(failures[:10])
        return _emit(args, "error", detail, KernelError("property failure"), 1)
    return _emit(args, "ok", summary, None, 0)


def main(argv=None) -> int:
    try:
        code = _run(sys.argv[1:] if argv is None else argv)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
        return code
    except BrokenPipeError:
        # no report can reach a reader that is gone; what is left goes to
        # devnull, so the flush at exit is quiet too (Python's signal docs)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return CLOSED_PIPE


def _run(argv) -> int:
    parser = _Parser(prog="tt", description="tiny type theory kernel")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="typecheck a file")
    p_check.add_argument("file")

    p_norm = sub.add_parser("normalize", help="print a normal form")
    p_norm.add_argument("file")
    p_norm.add_argument("-e", "--expr", required=True)
    p_norm.add_argument("-t", "--type", default=None)
    p_norm.add_argument("--oracle", action="store_true", help="cross-check with the rewriting oracle")

    p_eq = sub.add_parser("equal", help="decide definitional equality")
    p_eq.add_argument("file")
    p_eq.add_argument("-e", "--expr", action="append", default=[])
    p_eq.add_argument("-t", "--type", default=None)

    p_fuzz = sub.add_parser("fuzz", help="run the property suites")
    p_fuzz.add_argument("file")
    p_fuzz.add_argument("--count", type=_non_negative, default=100)
    p_fuzz.add_argument("--seed", type=int, default=0)
    p_fuzz.add_argument("--size", type=_non_negative, default=8)

    for p in (p_check, p_norm, p_eq, p_fuzz):
        p.add_argument("--json", action="store_true")

    commands = {
        "check": _cmd_check,
        "normalize": _cmd_normalize,
        "equal": _cmd_equal,
        "fuzz": _cmd_fuzz,
    }
    args = argparse.Namespace(json="--json" in argv)  # until parsed: to report a usage error
    try:
        args = parser.parse_args(argv)
        return commands[args.command](args)
    except KernelError as e:
        err = e
    except BrokenPipeError:
        raise  # reporting it would fail alike: main's to handle
    except OSError as e:
        err = KernelError(str(e))
    except RecursionError:
        err = ResourceExhausted("input too deep: recursion limit exceeded")
    except MemoryError:
        err = ResourceExhausted("input too large: out of memory")
    return _emit(args, err.status, None, err, err.exit_code)


def entry():  # console-script hook
    sys.exit(main())


if __name__ == "__main__":
    entry()
