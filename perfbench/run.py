"""Benchmark of the ttkernel kernel: end-to-end verdict metrics per
workload, and a separate traced run for per-layer metrics.

    python3 perfbench/run.py --workload user --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seconds 5 --trace 1
    python3 perfbench/run.py --self-check

Run it from anywhere; it loads the kernel from ``src/`` beside this
directory and writes scratch files and spans under ``perfbench/out/``.
Load is a closed loop: one client in this process, which sends the next
request only after the last one returned. The kernel runs at the
interpreter's default recursion limit, as ``tt`` does.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from functools import partial
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
ENV = {**os.environ, "PYTHONPATH": str(SRC)}

if not (SRC / "ttkernel" / "__init__.py").is_file():
    sys.exit(f"error: the kernel's sources are not at {SRC}")
sys.path.insert(0, str(SRC))

import calibrate  # noqa: E402
from spans import Calls, Tracer  # noqa: E402  (needs the kernel on the path)
from ttkernel.errors import KernelError  # noqa: E402
from ttkernel.surface import elaborate, parse  # noqa: E402
from workloads import ARITH, WORKLOADS, load, normalize_request, probes  # noqa: E402

TT_RUNS = 31  # set-ups and tt processes per run; setup_s and tt_wall_ms are medians
CLI_RUNS = 7  # bare and importing interpreters per traced run
SPEED_EVERY = 0.25  # seconds of requests between samples of the host's speed
CHILD_TIMEOUT = 60

SETUP_CHILD = """\
import json, sys, time
sources = json.load(sys.stdin)
start = time.perf_counter()
import ttkernel, ttkernel.gen
for source in sources:
    ttkernel.elaborate(ttkernel.parse(source))
print(time.perf_counter() - start)
"""
TT_CHILD = "import sys; from ttkernel.cli import main; sys.exit(main())"
FAILURE_KINDS = ("mismatch", "kernel_error", "recursion_error", "other")


def rng_for(seed: int, part: str) -> random.Random:
    """Independent seeded streams, so that how many rounds fit in a run
    changes no other input."""
    return random.Random(f"{seed}:{part}")


class Tally:
    """Distinct cases attempted and failed. Repeats of a request time one
    operation again: each of its cases counts once, and as failed if any
    repeat failed it."""

    def __init__(self):
        self.cases: dict[tuple, str | None] = {}  # (request key, case) -> failure kind
        self.messages: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.cases)

    @property
    def failures(self) -> Counter:
        return Counter(kind for kind in self.cases.values() if kind is not None)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def fail(self, key, kind: str, message: str, case: int = 0) -> None:
        if self.cases.get((key, case)) is None:
            self.cases[(key, case)] = kind
            if len(self.messages) < 10:
                self.messages.append(f"{kind}: {message}")

    def record(self, key, results: list) -> None:
        for case, problem in enumerate(results):
            if problem is None:
                self.cases.setdefault((key, case), None)
            else:
                self.fail(key, "mismatch", problem, case)


def run_request(request, key, calls, tally: Tally) -> tuple[float, int]:
    """Run one request; returns its wall seconds and how many cases it decided."""
    start = time.perf_counter()
    try:
        results = request.run(calls)
    except RecursionError:
        elapsed = time.perf_counter() - start
        tally.fail(key, "recursion_error", request.label)
        return elapsed, 1
    except KernelError as e:
        elapsed = time.perf_counter() - start
        tally.fail(key, "kernel_error", f"{request.label}: {e.code}: {e}")
        return elapsed, 1
    except Exception as e:  # a kernel bug must not stop the run: record it
        elapsed = time.perf_counter() - start
        tally.fail(key, "other", f"{request.label}: {type(e).__name__}: {e}")
        return elapsed, 1
    elapsed = time.perf_counter() - start
    tally.record(key, results)
    return elapsed, len(results)


class Timings:
    """Each request's total time over the rounds of a stream."""

    def __init__(self, n: int):
        self.total = [0.0] * n  # seconds, over all rounds
        self.cases = [1] * n
        self.rounds = 0

    def means(self) -> list[float]:
        """Each request's mean seconds per execution."""
        return [t / self.rounds for t in self.total]


class Speed:
    """The host's speed over a run, as the mean time of the reference
    computation sampled evenly through the stream. Request times are
    means over the same stream, so both average the host's speed over
    the same stretch; multiplying a time by ``scale`` gives it for a host
    on which the reference takes ``calibrate.REFERENCE_S``."""

    def __init__(self):
        self.samples: list[float] = []

    def sample(self) -> None:
        start = time.perf_counter()
        calibrate.run()
        self.samples.append(time.perf_counter() - start)

    @property
    def mean(self) -> float:
        return statistics.fmean(self.samples)

    @property
    def scale(self) -> float:
        return calibrate.REFERENCE_S / self.mean


def warm_up(requests, tally: Tally) -> None:
    """One untimed execution of every request, so that the timed rounds
    start with the interpreter's caches and specializations warm."""
    for i, request in enumerate(requests):
        run_request(request, i, Calls(), tally)


def stream(requests, rng, seconds: float, passes, speed: Speed, chores=()) -> None:
    """Whole rounds until ``seconds`` have passed. A round runs every
    request once in a new seeded order, for each pass in turn; a pass is
    a (calls, tally, timings) triple. ``chores``, the run's other
    measurements, run between requests, spread evenly over the stream,
    so that every measurement sees the host at the same mix of speeds.
    ``speed`` is sampled after every ``SPEED_EVERY`` seconds of requests,
    evenly over the time the request means average."""
    order = list(range(len(requests)))
    pending = [(seconds * (k + 0.5) / len(chores), chore) for k, chore in enumerate(chores)]
    start = time.perf_counter()
    unsampled = 0.0  # seconds of requests since the last sample
    while time.perf_counter() - start < seconds:
        for calls, tally, timings in passes:
            rng.shuffle(order)
            for i in order:
                if calls.tracer is not None:
                    calls.tracer.op = (timings.rounds, i)
                with calls.observing_kernel():
                    elapsed, timings.cases[i] = run_request(requests[i], i, calls, tally)
                timings.total[i] += elapsed
                unsampled += elapsed
                if unsampled >= SPEED_EVERY:
                    speed.sample()
                    unsampled -= SPEED_EVERY
                while pending and time.perf_counter() - start >= pending[0][0]:
                    pending.pop(0)[1]()
            timings.rounds += 1
    for _, chore in pending:
        chore()


def child(args: list[str], stdin: str | None = None) -> tuple[float, subprocess.CompletedProcess]:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *args],
        input=stdin,
        capture_output=True,
        text=True,
        env=ENV,
        cwd=ROOT,
        timeout=CHILD_TIMEOUT,
    )
    return time.perf_counter() - start, proc


def fresh_setup(sources: list[str]) -> float:
    """Import plus elaboration of the preludes in a fresh interpreter, in seconds."""
    _, proc = child(["-c", SETUP_CHILD], json.dumps(sources))
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
    return float(proc.stdout)


def tt_command(workload, rng, tally: Tally):
    """The workload's ``tt`` command, as a function that runs it once,
    checks its output and returns its wall seconds."""
    source, args, expected = workload.tt_command(rng)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{workload.name}.tt"
    path.write_text(source, encoding="utf-8")

    def run() -> float:
        elapsed, proc = child(["-c", TT_CHILD, args[0], str(path), *args[1:]])
        if proc.returncode != 0 or proc.stdout.strip() != expected:
            tally.fail("tt", "mismatch", f"tt {' '.join(args)}: exit {proc.returncode}, {proc.stdout.strip()!r}")
        else:
            tally.record("tt", [None])
        return elapsed

    return run


def cli_ms() -> tuple[float, float]:
    """Fastest bare interpreter start, and fastest import of ``ttkernel.cli`` beyond it."""
    bare, importing = [], []
    child(["-c", "import ttkernel.cli"])
    for _ in range(CLI_RUNS):
        bare.append(child(["-c", "pass"])[0])
        importing.append(child(["-c", "import ttkernel.cli"])[0])
    return min(bare) * 1e3, (min(importing) - min(bare)) * 1e3


def probe_tier(calls, tally: Tally) -> None:
    if calls.tracer is not None:
        calls.tracer.op = "probe tier"
    for request in probes(elaborate(parse(ARITH))):
        if calls.tracer is not None:
            calls.tracer.op = f"probe: {request.label}"
        run_request(request, request.label, calls, tally)


def peak_memory_kb(requests, sources: list[str], tally: Tally) -> float:
    """Largest tracemalloc peak of one step, elaborating a prelude or
    running one request, each measured from a collected heap."""
    steps = [partial(elaborate, parse(source)) for source in sources]
    steps += [partial(run_request, r, i, Calls(), tally) for i, r in enumerate(requests) if r.memory]
    peak = 0
    tracemalloc.start()
    try:
        for step in steps:
            gc.collect()
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            step()
            peak = max(peak, tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    return peak / 1024


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload, seed: int, seconds: float) -> tuple[dict, dict]:
    sources = workload.preludes(rng_for(seed, "prelude"))
    tallies = {part: Tally() for part in ("stream", "probes", "tt")}
    tt = tt_command(workload, rng_for(seed, "tt"), tallies["tt"])
    fresh_setup(sources)  # these two compile the kernel's and the CLI's bytecode
    tt()  # on a fresh checkout
    setups, walls = [], []
    chores = [lambda: setups.append(fresh_setup(sources)), lambda: walls.append(tt())]
    sigs = [elaborate(parse(source)) for source in sources]
    requests = workload.requests(sigs, rng_for(seed, "requests"))
    timings = Timings(len(requests))
    passes = [(Calls(), tallies["stream"], timings)]
    speed = Speed()
    warm_up(requests, tallies["stream"])
    stream(requests, rng_for(seed, "order"), seconds, passes, speed, chores * TT_RUNS)
    probe_tier(Calls(), tallies["probes"])
    peak = peak_memory_kb(requests, sources, tallies["stream"])
    means = timings.means()  # seconds per request
    attempted = sum(t.attempted for t in tallies.values())
    failed = sum(t.failed for t in tallies.values())
    k = speed.scale
    metrics = {
        "setup_s": metric(statistics.median(setups) * k, "s"),
        "verdict_p50_ms": metric(statistics.median(means) * 1e3 * k, "ms"),
        "verdict_p90_ms": metric(statistics.quantiles(means, n=10)[-1] * 1e3 * k, "ms"),
        "ops_per_s": metric(len(means) / sum(means) / k, "1/s"),
        "tt_wall_ms": metric(statistics.median(walls) * 1e3 * k, "ms"),
        "peak_mem_kb": metric(peak, "KiB"),
        "fail_ratio": metric(failed / attempted, "ratio"),
    }
    notes = {"requests": len(requests), "cases": sum(timings.cases), "rounds": timings.rounds}
    notes.update(reference_ms=speed.mean * 1e3, speed_samples=len(speed.samples), scale=k)
    return metrics, {"tallies": tallies, "notes": notes}


def traced(workload, seed: int, seconds: float) -> tuple[dict, dict]:
    """Per-layer metrics from a stream whose rounds alternate between
    untraced and traced. Times are means over the traced rounds, scaled
    like the end-to-end times; the tracing overhead is a traced round's
    mean total minus an untraced round's."""
    sources = workload.preludes(rng_for(seed, "prelude"))
    tallies = {part: Tally() for part in ("stream", "probes")}
    sigs = [elaborate(parse(source)) for source in sources]
    requests = workload.requests(sigs, rng_for(seed, "requests"))
    untraced, timings = Timings(len(requests)), Timings(len(requests))
    tracer = Tracer()
    calls = Calls(tracer)
    with tracer.observing_kernel():
        tracer.op = "setup"
        for source in sources:
            load(calls, source)
    passes = [(Calls(), tallies["stream"], untraced), (calls, tallies["stream"], timings)]
    speed = Speed()
    warm_up(requests, tallies["stream"])
    stream(requests, rng_for(seed, "order"), seconds, passes, speed)
    k = speed.scale
    with tracer.observing_kernel():
        probe_tier(calls, tallies["probes"])
    startup, imports = cli_ms()
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{workload.name}.jsonl")

    rounds = timings.rounds
    ops = {(r, i) for r in range(rounds) for i in range(len(requests))}
    probed = {op for (_, _, _, _, op, _) in tracer.spans if str(op).startswith("probe")}
    layer = tracer.layer_totals(ops)
    probe_layer = tracer.layer_totals(probed)
    counts = tracer.counted(ops)
    executed = len(requests) * rounds  # traced executions of requests

    def ms(*names):
        return metric(sum(layer[n.split(".")[0]].get(n, 0.0) for n in names) * 1e3 * k / executed, "ms/op")

    def per_case(name):
        return metric(counts[name] / executed, "count/op")

    def calls_of(name):
        return metric(layer[name]["calls"] / executed, "count/op")

    def errors_of(name):
        # raising calls of one round (every round repeats them) and of the probe tier
        return metric(layer[name]["errors"] // rounds + probe_layer[name]["errors"], "count")

    oracle_s = layer["rewrite"].get("rewrite.oracle", 0.0)
    steps, attempts = counts["rewrite.beta_iota_steps"], counts["gen.attempts"]
    metrics = {
        "surface.parse_ms": ms("surface.parse"),
        "surface.elab_ms": ms("surface.elab"),
        "surface.print_ms": ms("surface.print"),
        "surface.core_nodes": per_case("surface.core_nodes"),
        "surface.calls": calls_of("surface"),
        "surface.errors": errors_of("surface"),
        "signature.declare_ms": ms("signature.declare"),
        "signature.calls": calls_of("signature"),
        "signature.errors": errors_of("signature"),
        "check.infer_ms": ms("check.infer", "check.check"),
        "check.calls": calls_of("check"),
        "check.errors": errors_of("check"),
        "nbe.eval_ms": ms("nbe.eval"),
        "nbe.reify_ms": ms("nbe.reify"),
        "nbe.nf_nodes": per_case("nbe.nf_nodes"),
        "nbe.calls": calls_of("nbe"),
        "nbe.errors": errors_of("nbe"),
        "rewrite.oracle_ms": ms("rewrite.oracle"),
        "rewrite.beta_iota_steps": per_case("rewrite.beta_iota_steps"),
        "rewrite.us_per_step": metric(oracle_s * 1e6 * k / steps if steps else 0.0, "us"),
        "rewrite.calls": calls_of("rewrite"),
        "rewrite.errors": errors_of("rewrite"),
        "normal.erase_ms": ms("normal.erase"),
        "normal.is_normal_ms": ms("normal.is_normal"),
        "normal.calls": calls_of("normal"),
        "gen.gen_ms": ms("gen.gen"),
        "gen.enum_ms": ms("gen.enum"),
        "gen.cases_per_attempt": metric(counts["gen.cases"] / attempts if attempts else 0.0, "ratio"),
        "gen.calls": calls_of("gen"),
        "gen.errors": errors_of("gen"),
        "cli.startup_ms": metric(startup * k, "ms"),
        "cli.import_ms": metric(imports * k, "ms"),
        "trace.overhead_ms": metric((sum(timings.means()) - sum(untraced.means())) * 1e3 * k, "ms"),
    }
    notes = {
        "requests": len(requests),
        "untraced_rounds": untraced.rounds,
        "traced_rounds": timings.rounds,
        "spans": len(tracer.spans),
        "reference_ms": speed.mean * 1e3,
        "speed_samples": len(speed.samples),
        "scale": k,
    }
    return metrics, {"tallies": tallies, "notes": notes}


def report(name: str, metrics: dict, detail: dict) -> None:
    for key, m in metrics.items():
        print(f"{name:<11} {key:<24} {m['value']:>14.6g} {m['unit']}")
    notes = " ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}" for k, v in detail["notes"].items())
    print(f"{name:<11} {notes}")
    for part, tally in detail["tallies"].items():
        kinds = " ".join(f"{k}={tally.failures[k]}" for k in FAILURE_KINDS)
        print(f"{name:<11} {part}: {tally.attempted} attempted, {tally.failed} failed ({kinds})")
        for message in tally.messages:
            print(f"{name:<11}   {message[:200]}")


def result_line(results: list[tuple[str, dict, dict]], prefix: bool) -> str:
    tallies = [t for _, _, detail in results for t in detail["tallies"].values()]
    metrics = {}
    for name, ms, _ in results:
        metrics.update({f"{name}.{k}" if prefix else k: v for k, v in ms.items()})
    return json.dumps(
        {
            "correct": all(t.failures["mismatch"] == 0 for t in tallies),
            "attempted": sum(t.attempted for t in tallies),
            "failed": sum(t.failed for t in tallies),
            "metrics": metrics,
        }
    )


def self_check() -> bool:
    """Counts repeat exactly for the same seed, and ``mul 10 10`` takes
    121 oracle steps."""

    def counted(requests):
        tracer = Tracer()
        tally = Tally()
        with tracer.observing_kernel():
            for i, request in enumerate(requests):
                tracer.op = i
                run_request(request, i, Calls(tracer), tally)
        ops = set(range(len(requests)))
        layers = {k: (v["calls"], v["errors"]) for k, v in tracer.layer_totals(ops).items()}
        return tracer.counted(ops), layers, tally.attempted, tally.failed

    ok = True
    for name, workload in WORKLOADS.items():
        sigs = [elaborate(parse(source)) for source in workload.preludes(rng_for(0, "prelude"))]
        requests = workload.requests(sigs, rng_for(0, "requests"))
        first, second = counted(requests), counted(requests)
        same = first == second
        ok &= same and first[3] == 0
        print(
            f"self-check {name}: {len(requests)} requests, {first[2]} cases, {first[3]} failed, "
            f"counts {'repeat' if same else 'DIFFER'}: {dict(first[0])}"
        )
    sig = elaborate(parse(ARITH))
    counts, _, _, failed = counted([normalize_request(sig, "mul 10 10", 100, True)])
    steps = counts["rewrite.beta_iota_steps"]
    ok &= steps == 121 and failed == 0
    print(f"self-check mul 10 10 --oracle: {steps} beta/iota steps (expected 121), {failed} failed")
    print("self-check", "passed" if ok else "FAILED")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0, help="length of the timed stream")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)

    if args.self_check:
        return 0 if self_check() else 1
    if args.workload != "all" and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")

    if args.workload == "all":
        names, runs = list(WORKLOADS), [end_to_end, traced] if args.trace else [end_to_end]
    else:
        names, runs = [args.workload], [traced] if args.trace else [end_to_end]
    results = []
    for name in names:
        for run in runs:
            metrics, detail = run(WORKLOADS[name], args.seed, args.seconds)
            report(name, metrics, detail)
            results.append((name, metrics, detail))
    print(result_line(results, prefix=args.workload == "all"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
