"""Layered benchmark for molien.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload smoke --seconds 0 --trace 1

Run from the repository root; molien is imported from ./src. One process
runs one job at a time (a closed loop with a single client). A pass is
one run over the workload's job list; passes repeat while the next one
is expected to end within --seconds. Every output is checked against the
closed-form oracle in oracle.py. Untraced passes also time a fixed
calibration kernel every 0.1 s, and the end-to-end pass time is reported
in units of that kernel (pass_calib), which cancels host-speed drift.
Set-up is timed SETUP_SAMPLES times before the first pass, each between
two timings of a fixed compile-and-exec kernel, and reported as seconds
on a reference host where that kernel takes SETUP_REFERENCE_S (setup_s).

--trace 0 prints the end-to-end metrics; --trace 1 runs one untraced
pass, then one pass with the tracer of spans.py installed, and prints
the per-layer metrics. The last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it holds
the run's metadata and per-job failure records. See NOTES.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 15
SETUP_REFERENCE_S = 0.006  # setup_kernel time of the reference host that setup_s is expressed on
SETUP_KERNEL_REPEATS = 2  # setup_kernel runs per host-speed sample around a set-up
IDLE_SAMPLES = 25  # kernel runs after each untraced pass, to check the in-pass samples
SAMPLE_INTERVAL = 0.1  # seconds between host-speed samples during untraced passes
JOB_SPAN_TOLERANCE = (0.001, 0.01)  # seconds, share: traced self times vs the job's own timing
KINDS = ("verify", "series", "invariants", "rational")


# --- set-up -----------------------------------------------------------------------


def import_molien():
    """Import molien from this checkout's src, dropping any copy imported before."""
    for key in [k for k in sys.modules if k == "molien" or k.startswith("molien.")]:
        del sys.modules[key]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import molien
    import molien.cli

    if not os.path.abspath(molien.__file__).startswith(SRC + os.sep):
        raise ImportError(f"molien was imported from {molien.__file__}, not from {SRC}")
    return molien


def setup(workload: str, seed: int, spec_dir: str):
    """Import molien, generate the seeded specs and compute the oracle series."""
    molien = import_molien()
    jobs = workloads.build(workload, seed)
    workloads.write_specs(jobs, spec_dir)
    expected = {job.name: job.form.series(job.degree) for job in jobs}
    return molien, jobs, expected


def calibration_kernel():
    """Fixed pure-Python work (small Fractions, complex floats, dict stores, ints), 1-2 ms.

    It never calls molien, so a change to the library cannot change it.
    Callers time it with the cyclic collector off, so that no collection
    of molien's heap is counted as kernel time.
    """
    y = Fraction(5, 11)
    z, w = complex(0.6, 0.7), 0j
    table = {}
    acc = 0
    for i in range(240):
        table[(i % 16, i % 3)] = y * Fraction(i, 13) + y
        w = w * z + 1
        for j in range(20):
            acc = (acc + i * j) % 1_000_003
    return table, w, acc


# 120 functions and 30 small classes: compiled and executed like a module body.
SETUP_KERNEL_SOURCE = "\n".join(
    [f"def f{i}(a, b=({i}, 'x{i}'), *c, **d):\n    return [a + k for k in range({i % 7})]\n" for i in range(120)]
    + [
        f"class C{i}:\n    z = {i}\n    def m(self, y):\n        return {{'k': y, 'i': {i}}}\n"
        f"    @property\n    def p(self):\n        return self.z\n"
        for i in range(30)
    ]
)


def setup_kernel():
    """Fixed compile-and-exec work, about 6 ms, of the same kind as importing a module.

    Set-up is mostly importing molien. On the shared VM this kernel slowed
    down with the host by about as much as set-up did, where
    calibration_kernel slowed down more (see NOTES.md).
    """
    exec(compile(SETUP_KERNEL_SOURCE, "<setup_kernel>", "exec"), {})


def time_kernel(repeats: int = 1, kernel=calibration_kernel) -> float:
    """Mean seconds of one run of `kernel` over `repeats` runs, collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(repeats):
            kernel()
        return (time.perf_counter() - start) / repeats
    finally:
        if enabled:
            gc.enable()


class HostSampler:
    """Times calibration_kernel every SAMPLE_INTERVAL s of wall time while a pass runs.

    On shared cloud cores, speed drifts by tens of percent within seconds
    and minutes, and a point sample before a pass does not track it. A
    SIGALRM handler runs the kernel in the main thread between bytecodes
    (no thread), so the samples are spread evenly over the pass; their
    mean is the pass's host speed. Time spent in the handler is kept in
    `busy` and subtracted from job times.
    """

    def __init__(self):
        self.durations: list = []
        self.busy = 0.0

    def _sample(self, *_signal):
        start = time.perf_counter()
        self.durations.append(time_kernel())
        self.busy += time.perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL, SAMPLE_INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)


# --- jobs -------------------------------------------------------------------------


@dataclass
class Outcome:
    seconds: float
    output: str | None  # canonical output text, compared across passes
    reason: str | None  # why the job failed, or None
    degree: int | None  # first degree that disagrees with the oracle, if any
    reported: bool = False  # the program itself signalled failure (exit code or exception)


def call_job(molien, job):
    """Run one job through the public API; returns (exit code, stdout, stderr, group, rational)."""
    if job.kind == "rational":
        gens = [molien.SquareMatrix(rows, molien.EXACT) for rows in job.generators]
        group = molien.close_group(gens)
        return 0, None, None, group, molien.molien_rational(group)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = molien.cli.main(list(job.argv))
    return code, out.getvalue(), err.getvalue(), None, None


def run_job(molien, job, expected, tracer=None) -> Outcome:
    start = time.perf_counter()
    try:
        if tracer is None:
            code, stdout, stderr, group, rational = call_job(molien, job)
        else:
            tracer.job = job.name
            code, stdout, stderr, group, rational = tracer.span("job", call_job, molien, job)
    except Exception as exc:  # a raised exception is a job failure, not a benchmark crash
        return Outcome(time.perf_counter() - start, None, f"raised {type(exc).__name__}: {exc}", None, True)
    seconds = time.perf_counter() - start
    if job.kind == "rational":
        return check_rational(job, expected, seconds, group, rational)
    return check_cli(job, expected, seconds, code, stdout, stderr)


def check_cli(job, expected, seconds, code, stdout, stderr) -> Outcome:
    reasons = []
    degree = None
    if code != 0:
        first = stderr.strip().splitlines()[0] if stderr.strip() else "no message"
        reasons.append(f"exit {code} ({first})")
    try:
        payload = json.loads(stdout)
    except ValueError:
        payload = None
        reasons.append("stdout is not JSON")
    if payload is not None:
        order = payload.get("group_order")
        if order != job.form.order:
            reasons.append(f"group order {order} vs oracle {job.form.order}")
        if job.kind == "invariants":
            bad = check_invariants(job, expected, payload)
            if bad:
                degree = job.degree
                reasons.append(bad)
        else:
            methods = ("series", "trace", "rank") if job.kind == "verify" else ("series",)
            rows = payload.get("degrees", [])
            if [row.get("d") for row in rows] != list(range(job.degree + 1)):
                reasons.append("degrees missing from output")
            for row in rows:
                d = row.get("d")
                want = expected[d] if isinstance(d, int) and 0 <= d <= job.degree else None
                wrong = [f"{m} {row.get(m)}" for m in methods if row.get(m) != want]
                if job.kind == "verify" and row.get("agree") is not True:
                    wrong.append("agree false")
                if wrong:
                    degree = d if degree is None else degree
                    reasons.append(f"d={d}: {', '.join(wrong)} vs oracle {want}")
    return Outcome(seconds, stdout, "; ".join(reasons) or None, degree, code != 0)


def check_invariants(job, expected, payload) -> str | None:
    """S4 invariants of degree d: the basis is the monomial symmetric polynomials.

    Row-reduced orbit sums have disjoint supports, so each basis element
    must be the sum, with coefficients 1, of one full S4-orbit of exponent
    tuples, and there is one per partition of d into at most 4 parts.
    """
    block = payload.get("invariants", {})
    basis = block.get("basis", [])
    want = expected[job.degree]
    if block.get("dimension") != want or len(basis) != want:
        return f"dimension {block.get('dimension')} with {len(basis)} polynomials vs oracle {want}"
    partitions = set()
    for text in basis:
        support = []
        for term in text.split(" + "):
            expo = [0, 0, 0, 0]
            for factor in term.split("*"):
                var, _, power = factor.partition("^")
                if not (var.startswith("x") and var[1:].isdigit() and 1 <= int(var[1:]) <= 4):
                    return f"basis term {term!r} is not a bare monomial"
                expo[int(var[1:]) - 1] += int(power or 1)
            support.append(tuple(expo))
        orbit = set(permutations(support[0]))
        if len(support) != len(set(support)) or set(support) != orbit or sum(support[0]) != job.degree:
            return f"basis polynomial {text!r} is not one orbit sum"
        partitions.add(tuple(sorted(support[0])))
    if len(partitions) != want:
        return "basis repeats an orbit"
    return None


def check_rational(job, expected, seconds, group, rational) -> Outcome:
    """Re-expand the reduced rational form with Fractions and compare with the oracle."""
    numerator, denominator = rational
    reasons = []
    coeffs = []
    for poly in (numerator, denominator):
        values = []
        for c in poly.coeffs:
            if c.im != 0:
                reasons.append(f"non-real coefficient {c!r}")
            values.append(c.re)
        coeffs.append(values)
    degree = None
    if group.order != job.form.order:
        reasons.append(f"group order {group.order} vs oracle {job.form.order}")
    if not reasons:
        got = oracle.expand_fraction(coeffs[0], coeffs[1], job.degree)
        for d, (g, w) in enumerate(zip(got, expected)):
            if g != w:
                degree = d
                reasons.append(f"d={d}: re-expansion {g} vs oracle {w}")
                break
    text = json.dumps([[str(x) for x in values] for values in coeffs])
    return Outcome(seconds, text, "; ".join(reasons) or None, degree)


# --- passes ---------------------------------------------------------------------


class Run:
    """Set-ups and outcomes of every pass of one benchmark run, with failure accounting."""

    def __init__(self, workload: str, seed: int, spec_dir: str):
        self.workload = workload
        self.seed = seed
        self.spec_dir = spec_dir
        self.setup_durations: list = []  # seconds
        self.setup_ratios: list = []  # seconds / setup_kernel seconds around the set-up
        self.molien = self.jobs = self.expected = None
        self.first_output: dict = {}
        self.passes: list = []  # per pass: {"seconds", "calib_s", "calib_idle_s", "samples", "jobs", "traced"}
        self.failures: list = []
        self.attempted = 0
        self.silent_wrong = 0  # jobs that reported success but gave a wrong or changed output

    def setups(self, count: int) -> None:
        """Set up `count` times; the passes use the last set-up.

        Each set-up is timed between two runs of setup_kernel and divided
        by their mean, so that `setup_ratios` do not move with host speed.
        Garbage is collected before each set-up, outside the timed region.
        """
        before = time_kernel(SETUP_KERNEL_REPEATS, setup_kernel)
        for _ in range(count):
            gc.collect()
            start = time.perf_counter()
            self.molien, self.jobs, self.expected = setup(self.workload, self.seed, self.spec_dir)
            elapsed = time.perf_counter() - start
            after = time_kernel(SETUP_KERNEL_REPEATS, setup_kernel)
            self.setup_durations.append(elapsed)
            self.setup_ratios.append(elapsed / ((before + after) / 2))
            before = after

    def one_pass(self, tracer=None) -> dict:
        """Run every job once; untraced passes sample host speed, traced ones do not."""
        sampler = HostSampler()
        outcomes = {}
        with contextlib.nullcontext() if tracer else sampler:
            for job in list(self.jobs):
                busy = sampler.busy
                outcome = run_job(self.molien, job, self.expected[job.name], tracer)
                outcome.seconds -= sampler.busy - busy
                outcomes[job.name] = outcome
                self.account(len(self.passes), job, outcome)
        record = {
            "seconds": sum(o.seconds for o in outcomes.values()),
            "calib_s": statistics.fmean(sampler.durations) if sampler.durations else None,
            "calib_idle_s": None if tracer else time_kernel(IDLE_SAMPLES),
            "samples": len(sampler.durations),
            "jobs": outcomes,
            "traced": tracer is not None,
        }
        self.passes.append(record)
        return record

    def account(self, pass_index, job, outcome: Outcome) -> None:
        self.attempted += 1
        reasons = [outcome.reason] if outcome.reason else []
        if outcome.output is not None and outcome.output != self.first_output.setdefault(job.name, outcome.output):
            reasons.append("output differs from the first pass")
        if not reasons:
            return
        if not outcome.reported:
            self.silent_wrong += 1
        reason = "; ".join(reasons)
        self.failures.append(
            {"workload": self.workload, "pass": pass_index, "job": job.name, "degree": outcome.degree, "reason": reason}
        )

    def timed_passes(self, seconds: float) -> None:
        """Passes until the next one would be expected to end after `seconds`."""
        start = time.perf_counter()
        self.setups(SETUP_SAMPLES)
        while True:
            self.one_pass()
            elapsed = time.perf_counter() - start
            if elapsed + max(p["seconds"] for p in self.passes) > seconds:
                return


def kind_seconds(record: dict, jobs) -> dict:
    out = {kind: 0.0 for kind in KINDS}
    for job in jobs:
        out[job.kind] += record["jobs"][job.name].seconds
    return out


def order_exponent(record: dict, jobs) -> float:
    """Least-squares slope of log job time on log |G| within same-kind, same-degree families.

    Families are pooled with their own intercepts. 0.0 when no family has
    two different group orders (verify_exact).
    """
    families: dict = {}
    for job in jobs:
        families.setdefault((job.kind, job.degree), []).append(job)
    sxx = sxy = 0.0
    for members in families.values():
        points = [(math.log(job.form.order), math.log(record["jobs"][job.name].seconds)) for job in members]
        if len({x for x, _ in points}) < 2:
            continue
        mx = statistics.fmean(x for x, _ in points)
        my = statistics.fmean(y for _, y in points)
        sxx += sum((x - mx) ** 2 for x, _ in points)
        sxy += sum((x - mx) * (y - my) for x, y in points)
    return sxy / sxx if sxx else 0.0


def distinct_dets(molien, groups) -> int:
    """Distinct det(1 - l*g) polynomials summed over the exact groups closed in a pass."""
    total = 0
    for group in groups:
        if group.backend.is_exact:
            total += len({molien.det_one_minus_lambda(g) for g in group.elements})
    return total


# --- metrics ----------------------------------------------------------------------


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end_metrics(run: Run) -> dict:
    return {
        "pass_calib": metric(statistics.median(p["seconds"] / p["calib_s"] for p in run.passes), "calib"),
        "setup_s": metric(statistics.median(run.setup_ratios) * SETUP_REFERENCE_S, "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer_metrics(run: Run, tracer: spans.Tracer, plain: dict, traced: dict) -> dict:
    totals = tracer.layer_totals()

    def calls(name):
        return totals.get(name, [0, 0.0])[0]

    def self_s(name):
        return totals.get(name, [0, 0.0])[1]

    kinds = kind_seconds(plain, run.jobs)
    return {
        "groups.close_s": metric(self_s("groups.close_group"), "s"),
        "groups.close_matmuls": metric(tracer.calls_under("matrices.matmul", "groups.close_group"), "count"),
        "matrices.matmul_calls": metric(calls("matrices.matmul"), "count"),
        "matrices.matmul_s": metric(self_s("matrices.matmul"), "s"),
        "matrices.det_calls": metric(calls("matrices.det"), "count"),
        "matrices.det_s": metric(self_s("matrices.det"), "s"),
        "series.average_s": metric(self_s("series.average"), "s"),
        "series.reciprocal_calls": metric(calls("series.reciprocal"), "count"),
        "series.distinct_dets": metric(distinct_dets(run.molien, tracer.groups), "count"),
        "matrices.upoly_mul_calls": metric(calls("matrices.upoly_mul"), "count"),
        "matrices.upoly_mul_s": metric(self_s("matrices.upoly_mul"), "s"),
        "series.rational_s": metric(self_s("series.rational"), "s"),
        "series.gcd_s": metric(self_s("series.gcd"), "s"),
        "action.induced_calls": metric(calls("action.induced"), "count"),
        "action.induced_s": metric(self_s("action.induced"), "s"),
        "polynomials.substitute_calls": metric(calls("polynomials.substitute"), "count"),
        "polynomials.substitute_s": metric(self_s("polynomials.substitute"), "s"),
        "invariants.reynolds_s": metric(self_s("invariants.reynolds"), "s"),
        "invariants.basis_s": metric(self_s("invariants.basis"), "s"),
        "invariants.basis_size_max": metric(tracer.basis_size_max, "count"),
        "matrices.row_reduce_s": metric(self_s("matrices.row_reduce"), "s"),
        "matrices.row_reduce_rows": metric(tracer.row_reduce_rows, "count"),
        "scalars.coerce_calls": metric(calls("scalars.coerce"), "count"),
        "scalars.coerce_s": metric(self_s("scalars.coerce"), "s"),
        "cli.self_s": metric(self_s("cli.main"), "s"),
        "kind.verify_s": metric(kinds["verify"], "s"),
        "kind.series_s": metric(kinds["series"], "s"),
        "kind.invariants_s": metric(kinds["invariants"], "s"),
        "kind.rational_s": metric(kinds["rational"], "s"),
        "order_exponent": metric(order_exponent(plain, run.jobs), "slope"),
        "failed_frac": metric(len(run.failures) / run.attempted, "ratio"),
        "trace.overhead": metric(traced["seconds"] / plain["seconds"], "ratio"),
        "pass_s": metric(plain["seconds"], "s"),
        "host.calib_s": metric(plain["calib_s"], "s"),
    }


def check_job_spans(tracer: spans.Tracer, record: dict) -> None:
    """The self times under each job add up to its span, and to the job time run_job measured."""
    absolute, share = JOB_SPAN_TOLERANCE
    for job, (self_sum, span_s) in tracer.job_self_times().items():
        measured = record["jobs"][job].seconds
        if abs(self_sum - span_s) > 1e-6 or abs(self_sum - measured) > absolute + share * measured:
            raise RuntimeError(
                f"job {job}: traced self times {self_sum:.6f} s, span {span_s:.6f} s, measured {measured:.6f} s"
            )


def metadata(run: Run, traced: bool) -> dict:
    return {
        "workload": run.workload,
        "seed": run.seed,
        "trace": int(traced),
        "python": sys.version.split()[0],
        "implementation": run.molien.ACTIVE_IMPLEMENTATION,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "setup_s": run.setup_durations,
        "setup_ratio": run.setup_ratios,
        "pass_count": sum(not p["traced"] for p in run.passes),
        "passes": [
            {"seconds": p["seconds"], "calib_s": p["calib_s"], "calib_idle_s": p["calib_idle_s"],
             "samples": p["samples"], "traced": p["traced"],
             "jobs": {name: o.seconds for name, o in p["jobs"].items()}}
            for p in run.passes
        ],
        "failures": run.failures,
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a repository."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as handle:
                return handle.read().strip()
        return ref
    except OSError:
        return "unknown"


# --- entry points -------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, traced: bool, out_dir: str = OUT):
    """One benchmark run; returns (result object, metadata, Run)."""
    run = Run(workload, seed, os.path.join(out_dir, f"specs-{workload}-{seed}-{os.getpid()}"))
    try:
        if not traced:
            run.timed_passes(seconds)
            metrics = end_to_end_metrics(run)
        else:
            run.setups(SETUP_SAMPLES)
            plain = run.one_pass()
            tracer = spans.Tracer()
            tracer.install()
            try:
                traced_record = run.one_pass(tracer)
            finally:
                tracer.uninstall()
            check_job_spans(tracer, traced_record)
            tracer.dump(os.path.join(out_dir, f"trace-{workload}-{seed}.json"))
            metrics = per_layer_metrics(run, tracer, plain, traced_record)
    finally:
        shutil.rmtree(run.spec_dir, ignore_errors=True)
    result = {
        "correct": run.silent_wrong == 0,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": metrics,
    }
    return result, metadata(run, traced), run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("smoke",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        parser.error("--workload is required")
    os.makedirs(OUT, exist_ok=True)
    result, meta, _run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
