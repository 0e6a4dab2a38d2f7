"""Benchmark of einext: one workload, one run, one JSON line of results.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {enumerate,verify,search,cli} \
        --seed N --seconds S --trace {0,1}

With --trace 0 it reports the end-to-end metrics (setup_s, ops_per_s,
peak_rss_mb), the timed ones scaled to a reference host speed (see
host_pace); with --trace 1 it wraps einext's layers and reports the
per-layer metrics instead.  Either way it checks every output against the
independent references in reference.py, and the last line of stdout is
{"correct", "attempted", "failed", "metrics"}.  See README.md.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # keep src/ free of __pycache__: every cold start compiles einext

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import time
from fractions import Fraction
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
SETUP_PROBES = 9  # cold starts per run, spread between the timed passes
PACE_EVERY_S = 0.5  # op time between two measurements of the host pace
REF_PACE_S = 0.003  # summed best times of the reference loops on a 2-vCPU VM in its fast state


def _ref_int() -> None:
    total = 0
    for i in range(12_000):
        total += i * i % 7


def _ref_fraction() -> None:
    total = Fraction(0)
    for i in range(1, 150):
        total += Fraction(i, i + 7) * Fraction(3, i)


def _ref_dict() -> None:
    counts: dict = {}
    for i in range(1_500):
        key = (i % 97, i % 31)
        counts[key] = counts.get(key, 0) + i
    sorted(counts.items())
    [tuple(range(i % 10)) for i in range(750)]


def _ref_numpy(np, m) -> None:
    a = m
    for _ in range(250):
        a = np.tanh(a @ m) + m


def host_pace() -> float:
    """How slowly the host runs now: the summed best-of-5 times of four fixed loops
    (integers, Fractions, dicts and tuples, small numpy products) over REF_PACE_S.

    A shared host shifts its speed by up to a factor of two, for seconds or
    for minutes.  Multiplying a rate by the mean pace measured while it ran
    takes most of that shift out.  The loops mix the kinds of work einext
    does, since each kind slows by its own factor, and the best of five
    ignores stalls shorter than a loop.  None of them runs einext code.
    """
    import numpy  # after main() has pinned the BLAS threads

    m = numpy.arange(144.0).reshape(12, 12) / 100
    total = 0.0
    for loop, args in ((_ref_int, ()), (_ref_fraction, ()), (_ref_dict, ()), (_ref_numpy, (numpy, m))):
        best = float("inf")
        for _ in range(5):
            start = time.perf_counter()
            loop(*args)
            best = min(best, time.perf_counter() - start)
        total += best
    return total / REF_PACE_S


def setup_samples(workload: str, seed: int, count: int) -> list[float]:
    """Seconds from spawning a cold interpreter until it has imported einext and built the inputs."""
    samples = []
    for _ in range(count):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(ROOT / "perfbench" / "probe.py"), workload, str(seed)],
                                stdout=subprocess.PIPE, env=workloads.child_env(ROOT), cwd=ROOT)
        try:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - start)
        finally:
            proc.stdout.close()
            proc.wait()
        if line.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe for {workload} exited with {proc.returncode}")
    return samples


class Tally:
    def __init__(self, problems: list[str]):
        self.attempted = 0
        self.failed = 0
        self.problems = list(problems)

    def judge(self, wl, outs) -> None:
        for op, out in zip(wl.ops, outs):
            self.attempted += 1
            verdict = workloads.FAILED if isinstance(out, Exception) else wl.judge(op, out)
            if verdict == workloads.FAILED:
                self.failed += 1
            elif verdict:
                self.problems.append(verdict)

    def result(self, metrics: dict) -> dict:
        for problem in self.problems[:20]:
            print(f"perfbench: incorrect: {problem}", file=sys.stderr)
        return {
            "correct": not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }


def run_pass(wl, tracer=None, after_op=None) -> tuple[list[float], list]:
    """Every op of the workload once, in order; returns each op's seconds and output.

    An op that raises yields its exception as output.  ``after_op`` is called
    with each op's seconds, outside the timed region.
    """
    outs, durations = [], []
    for op in wl.ops:
        span = None
        if tracer is not None:
            tracer.op += 1
            span = tracer.open("op." + wl.name)
        start = time.perf_counter()
        try:
            out = wl.run(op)
        except Exception as exc:  # the op failed; counted, not fatal
            out = exc
        durations.append(time.perf_counter() - start)
        if after_op is not None:
            after_op(durations[-1])
        if span is not None:
            marks = getattr(out, "marks", None)
            if marks:
                proc = tracer.open("cli.process", out.start)
                tracer.record("cli.import", marks[0], marks[1])
                tracer.record("cli.main", marks[1], marks[2])
                tracer.close(proc, out.end)
            tracer.close(span)
        outs.append(out)
    return durations, outs


def untraced(wl, args, tally: Tally) -> dict:
    """Whole passes until their summed time reaches --seconds; checks and cold starts run between passes.

    The host pace is measured before the first op and then after every op that
    ends PACE_EVERY_S or more of op time since the last measurement, so its
    mean is the run's mean pace.  The SETUP_PROBES cold starts are spread in
    proportion to the pass time, so they see the same host as the passes.
    ops_per_s is the unscaled rate times the mean pace, setup_s the median
    cold start over it.
    """
    times: list[list[float]] = []
    setup: list[float] = []
    paces = [host_pace()]
    since = 0.0

    def after_op(seconds: float) -> None:
        nonlocal since
        since += seconds
        if since >= PACE_EVERY_S:
            paces.append(host_pace())
            since = 0.0

    while not times or sum(map(sum, times)) < args.seconds:
        durations, outs = run_pass(wl, after_op=after_op)
        times.append(durations)
        tally.judge(wl, outs)
        due = min(SETUP_PROBES, math.ceil(SETUP_PROBES * sum(map(sum, times)) / args.seconds))
        setup += setup_samples(wl.name, args.seed, due - len(setup))
    if wl.name == "cli":
        peak_kb = wl.peak_child_kb
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    raw_rate = len(wl.ops) * len(times) / sum(map(sum, times))
    raw_setup = statistics.median(setup)
    pace = statistics.fmean(paces)
    print(f"perfbench: {len(times)} passes, unscaled {raw_rate:.4g} ops/s and set-up {raw_setup:.4g} s, "
          f"mean host pace {pace:.3f} (range {min(paces):.3f}-{max(paces):.3f})", file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    record = {"seconds": times, "paces": paces, "setup_seconds": setup}
    (OUT / f"ops-{wl.name}-seed{args.seed}.json").write_text(json.dumps(record))
    return tally.result({
        "setup_s": (raw_setup / pace, "s"),
        "ops_per_s": (raw_rate * pace, "1/s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    })


def traced(wl, args, tally: Tally) -> dict:
    """Plain and traced passes alternate until their summed time reaches --seconds."""
    from tracer import SPAN_NAMES, Tracer

    tracer = Tracer()
    plain: list[float] = []
    times: list[float] = []
    results = []
    while not times or sum(plain) + sum(times) < args.seconds:
        durations, outs = run_pass(wl)
        plain.append(sum(durations))
        tally.judge(wl, outs)
        wl.traced = True
        tracer.install()
        try:
            durations, outs = run_pass(wl, tracer)
        finally:
            tracer.uninstall()
            wl.traced = False
        times.append(sum(durations))
        results.append(outs)
    for outs in results:
        tally.judge(wl, outs)
    tracer.write(OUT / f"spans-{wl.name}.csv")

    passes = len(times)

    def per_pass(total):
        value = total / passes
        return int(value) if value == int(value) else value

    totals = tracer.layer_totals()
    metrics: dict[str, tuple] = {}
    for name in SPAN_NAMES:
        calls, incl, own = totals.get(name, (0, 0.0, 0.0))
        metrics[f"{name}.calls"] = (per_pass(calls), "count")
        metrics[f"{name}.s"] = (incl / passes, "s")
        metrics[f"{name}.self_s"] = (own / passes, "s")
    adds = totals.get("ratlinalg.SpanTracker.add", (0,))[0]
    subspaces = len(tracer.signatures)
    metrics["spectral.subspaces"] = (subspaces, "count")
    metrics["spectral.subspace_yield"] = (subspaces * passes / adds if adds else 0.0, "ratio")
    metrics["solver.model_build.probes"] = (per_pass(tracer.counts["solver.model_build.probes"]), "count")
    metrics["solver.residual_evals"] = (per_pass(tracer.counts["solver.residual_evals"]), "count")
    restarts = [(s, op.tolerance) for outs in results for op, out in zip(wl.ops, outs)
                for s in getattr(out, "restart_summaries", ())]
    converged = sum(1 for s, tol in restarts if s["objective"] <= tol)
    metrics["solver.lm.iterations"] = (per_pass(sum(s["iterations"] for s, _ in restarts)), "count")
    metrics["solver.restart_yield"] = (converged / len(restarts) if restarts else 0.0, "ratio")
    procs = [out for outs in results for out in outs if getattr(out, "marks", None)]
    count = max(len(procs), 1)
    process = sum(out.end - out.start for out in procs) / count
    imports = sum(out.marks[1] - out.marks[0] for out in procs) / count
    main = sum(out.marks[2] - out.marks[1] for out in procs) / count
    metrics["cli.process_s"] = (process, "s")
    metrics["cli.import_s"] = (imports, "s")
    metrics["cli.main_s"] = (main, "s")
    metrics["cli.interpreter_s"] = (process - imports - main, "s")
    metrics["trace.overhead"] = (statistics.median(times) / statistics.median(plain), "ratio")
    return tally.result(metrics)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "einext" / "__init__.py").is_file():
        print(f"perfbench: no einext sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    os.environ.update(workloads.PIN_ENV)  # before numpy loads, so BLAS starts single-threaded
    sys.path.insert(0, str(ROOT / "src"))
    wl = workloads.build(args.workload, args.seed, ROOT)
    import numpy

    pins = " ".join(f"{k}={v}" for k, v in workloads.PIN_ENV.items())
    print(f"perfbench: python {sys.version.split()[0]}, numpy {numpy.__version__}, {pins}", file=sys.stderr)
    tally = Tally(wl.prepare())
    wl.warm_up()
    result = traced(wl, args, tally) if args.trace else untraced(wl, args, tally)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
