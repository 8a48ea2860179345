"""Seeded benchmark of ellk3, run from the root of a checkout:

    python3 perfbench/run.py --workload surfaces --seed 1 --seconds 18 --trace 0

Workloads: surfaces, certify, series, cli (or ``all``, one after another).
One process drives the load as a closed loop with one caller; the cli
workload runs one subprocess at a time.  With ``--trace 0`` the run
measures for about ``--seconds`` seconds (at least one full pass) and
reports the end-to-end metrics; with ``--trace 1`` it runs the first pass
untraced and then again traced, and reports the per-layer metrics and the
tracing overhead.  Times are in reference seconds: wall time divided
by the host's slowdown, sampled around and during each job (hostspeed.py).
Human-readable lines come first; the last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  The exit code is 0 only when every output checked
out.
"""

import argparse
import hashlib
import importlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
DIGESTS = os.path.join(HERE, "digests.json")
DIGEST_SEED = 0  # outputs at this seed are pinned in digests.json
SETUP_PROBES = 4  # fresh-process set-ups per untraced run, besides the run's own

sys.path.insert(0, HERE)
from hostspeed import HostClock  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, known_defect  # noqa: E402

# (name, unit, better) of the metrics BENCHMARK.json declares
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("pass_s", "s", "lower"),
]
PER_LAYER = (
    [("elimination.resultant.%s.ms" % d, "ms", "lower") for d in ("int", "frac", "modp")]
    + [("elimination.discriminant.%s.ms" % d, "ms", "lower") for d in ("int", "bigint", "frac", "modp")]
    + [
        ("elimination.calls.resultant", "count", "lower"),
        ("elimination.calls.discriminant", "count", "lower"),
        ("elimination.entry_bits.p50", "bits", "lower"),
        ("elimination.factor.ms", "ms", "lower"),
        ("elimination.squarefree.ms", "ms", "lower"),
        ("elimination.split_share", "ratio", "lower"),
        ("weierstrass.assemble.ms", "ms", "lower"),
        ("weierstrass.fiber_profile.ms", "ms", "lower"),
        ("weierstrass.places.count", "count", "lower"),
        ("invariants.r96.ms", "ms", "lower"),
        ("invariants.k552.ms", "ms", "lower"),
        ("invariants.delta264.ms", "ms", "lower"),
        ("invariants.slice.evals", "count", "lower"),
        ("invariants.slice.eval_share.q", "ratio", "lower"),
        ("invariants.slice.eval_share.p", "ratio", "lower"),
        ("binforms.substitute.ms", "ms", "lower"),
        ("scalars.reduce_mod.ms", "ms", "lower"),
        ("multipoly.raising_table.ms", "ms", "lower"),
    ]
    + [("hilbert.oracle.d%d.s" % d, "s", "lower") for d in (16, 18, 20, 22, 24)]
    + [
        ("hilbert.basis.d24.dim_v0", "count", "lower"),
        ("hilbert.basis.d24.dim_v2", "count", "lower"),
        ("hilbert.basis.d24.s", "s", "lower"),
        ("hilbert.molien.ms", "ms", "lower"),
        ("qseries.borcherds.ms", "ms", "lower"),
        ("qseries.eisenstein.ms", "ms", "lower"),
    ]
    + [("cli.%s.ms" % k, "ms", "lower")
       for k in ("classify", "invariant", "verify", "hilbert", "qseries", "error", "import")]
    + [
        ("cli.exit_mismatch", "count", "lower"),
        ("trace.overhead.pass_s", "s", "lower"),
    ]
)


class Api:
    """ellk3's modules, looked up at call time so traced wrappers apply."""

    def __init__(self):
        if not os.path.isfile(os.path.join(SRC, "ellk3", "__init__.py")):
            raise FileNotFoundError("ellk3 sources not found under %s" % SRC)
        sys.path.insert(0, SRC)
        ellk3 = importlib.import_module("ellk3")
        if not os.path.abspath(ellk3.__file__).startswith(SRC + os.sep):
            raise ImportError("ellk3 was imported from %s, not from %s" % (ellk3.__file__, SRC))
        for short, name in (("sc", "scalars"), ("mp", "multipoly"), ("bf", "binforms"),
                            ("elim", "elimination"), ("ws", "weierstrass"), ("inv", "invariants"),
                            ("hil", "hilbert"), ("qs", "qseries"), ("cli", "cli")):
            setattr(self, short, importlib.import_module("ellk3." + name))


def setup(name, seed, tracer=None):
    """Imports, the first sympy and numpy use, the raising table and the
    first pass's inputs; returns (reference seconds, workload, first pass
    jobs).  A traced set-up is timed without the sampling timer."""

    def work():
        api = Api()
        if tracer is not None:
            tracer.install()
            tracer.enabled = True
        api.hil.raising_table()
        if tracer is not None:
            tracer.enabled = False
        api.elim.gcd_and_squarefree(api.bf.BinaryForm(2, [1, 0, -2]))  # first sympy use
        api.hil.invariant_dimension_oracle(8)  # first numpy use
        workload = WORKLOADS[name](api, seed, WORKDIR)
        return workload, workload.jobs(0)

    clock = HostClock(timer=tracer is None)
    (workload, jobs), seconds, before, during = clock.measure(work)
    clock.close()
    return seconds / clock.slowdown(before, during), workload, jobs


def setup_probe(name, seed):
    """Set up once in a fresh process and return the set-up time in
    reference seconds."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
           "--setup-probe"]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if p.returncode != 0:
        raise RuntimeError("set-up probe failed: %s" % p.stderr.strip()[-400:])
    return json.loads(p.stdout.strip().splitlines()[-1])["setup_s"]


class Tally:
    """Job timings, failures and pass-0 outputs of one measuring phase.
    ``raw`` holds each job kind's wall times; after ``close()``,
    ``samples`` holds them in reference seconds (see hostspeed.py)."""

    def __init__(self, timer, numpy_kinds=()):
        self.raw = {}
        self.samples = {}
        self.timed = []  # (kind, wall seconds, host sample before the job, samples during it)
        self.numpy_kinds = numpy_kinds
        self.clock = HostClock(timer, numpy=bool(numpy_kinds))
        self.attempted = 0
        self.failed = 0
        self.known_defects = 0
        self.problems = []
        self.canon = []
        self.jobs = []

    def run(self, job, pass_index, tracer=None):
        self.attempted += 1
        self.jobs.append(job)

        def call():
            if tracer is not None:
                tracer.enabled = True
            try:
                return job.fn()
            finally:
                if tracer is not None:
                    tracer.enabled = False

        try:
            result, dt, before, during = self.clock.measure(call)
            problems = job.check(result)
        except Exception:
            self.failed += 1
            self.problems.append("%s raised: %s" % (job.kind, traceback.format_exc(limit=3)))
            if pass_index == 0 and job.canon is not None:
                self.canon.append([job.kind, "raised"])
            return
        self.raw.setdefault(job.kind, []).append(dt)
        self.timed.append((job.kind, dt, before, during))
        if problems:
            if known_defect(job, result):
                self.known_defects += 1
            else:
                self.failed += 1
                self.problems.extend("%s: %s" % (job.kind, p) for p in problems)
        if pass_index == 0 and job.canon is not None:
            self.canon.append([job.kind, job.canon(result)])

    def close(self):
        """Take the last host sample and convert the job times."""
        self.clock.close()
        self.samples = {}
        for kind, dt, before, during in self.timed:
            slowdown = self.clock.slowdown(before, during, numpy=kind in self.numpy_kinds)
            self.samples.setdefault(kind, []).append(dt / slowdown)

    def pass_s(self, mix):
        return sum(w * statistics.median(self.samples[k]) for k, w in mix.items() if k in self.samples)


def measure(workload, first_jobs, seconds, probe, probes):
    """Closed loop over passes until ``seconds`` of job time have gone by:
    the first pass always runs whole, and after it a job is skipped when
    its kind's median time says it would end past the deadline (shorter
    jobs may still fit), until a pass runs no job.  ``probe()`` runs
    ``probes`` times, between jobs and spread evenly over the job time (any
    left over run at the end), so that the set-up times sample the whole
    run rather than one moment of the host's load; their time does not
    count towards the deadline.  Returns (tally, job seconds, probe results)."""
    tally = Tally(timer=not workload.SUBPROCESS, numpy_kinds=workload.NUMPY_KINDS)
    spent = 0.0  # wall time spent in probes
    results = []
    t0 = time.perf_counter()

    def elapsed():
        return time.perf_counter() - t0 - spent

    def maybe_probe():
        nonlocal spent
        while len(results) < probes and elapsed() >= len(results) * seconds / probes:
            p0 = time.perf_counter()
            results.append(probe())
            spent += time.perf_counter() - p0

    index, jobs = 0, first_jobs
    while True:
        ran = 0
        for job in jobs:
            maybe_probe()
            if index > 0:
                est = statistics.median(tally.raw[job.kind]) if job.kind in tally.raw else 0.0
                if elapsed() + est > seconds:
                    continue
            tally.run(job, index)
            ran += 1
        index += 1
        if not ran or elapsed() >= seconds:
            break
        jobs = workload.jobs(index)
    measured = elapsed()
    tally.close()
    while len(results) < probes:
        results.append(probe())
    return tally, measured, results


def layer_metrics(tracer, setup_spans, workload, traced):
    """Per-layer metrics from the spans of one traced pass: time totals
    (nested calls included), exact counts and shares."""
    E, W, I, H, Q = ("ellk3.elimination.", "ellk3.weierstrass.", "ellk3.invariants.",
                     "ellk3.hilbert.", "ellk3.qseries.")
    m = {}
    res = [s for s in tracer.select(E + "resultant")
           if s.detail is not None and not s.inside(E + "discriminant_binary")]
    disc = [s for s in tracer.select(E + "discriminant_binary") if s.detail is not None]
    for name, spans, domains in (("resultant", res, ("int", "frac", "modp")),
                                 ("discriminant", disc, ("int", "bigint", "frac", "modp"))):
        for d in domains:
            m["elimination.%s.%s.ms" % (name, d)] = 1e3 * sum(
                s.seconds for s in spans
                if s.detail[0] == d or (d == "int" and name == "resultant" and s.detail[0] == "bigint"))
        m["elimination.calls.%s" % name] = len(spans)
    bits = [s.detail[1] for s in res + disc if s.detail[1] is not None]
    m["elimination.entry_bits.p50"] = statistics.median(bits) if bits else 0
    factor = tracer.total(E + "gcd_and_squarefree")
    squarefree = tracer.total(E + "squarefree_decomposition")
    m["elimination.factor.ms"] = 1e3 * factor
    m["elimination.squarefree.ms"] = 1e3 * squarefree
    m["elimination.split_share"] = (factor - squarefree) / factor if factor else 0.0
    m["weierstrass.assemble.ms"] = 1e3 * tracer.total(W + "assemble")
    m["weierstrass.fiber_profile.ms"] = 1e3 * tracer.total(W + "fiber_profile")
    m["weierstrass.places.count"] = sum(s.detail for s in tracer.select(W + "fiber_profile"))
    for name in ("r96", "k552", "delta264"):
        m["invariants.%s.ms" % name] = 1e3 * tracer.total(I + name)
    m["invariants.slice.evals"] = sum(
        1 for s in tracer.spans
        if s.name in (I + "r96", I + "k552") and s.parent is not None
        and s.parent.name == I + "slice_divisibility")
    m["invariants.slice.eval_share.q"] = 0.0
    m["invariants.slice.eval_share.p"] = 0.0
    m["binforms.substitute.ms"] = 1e3 * tracer.total("ellk3.binforms.BinaryForm.substitute")
    m["scalars.reduce_mod.ms"] = 1e3 * tracer.total("ellk3.scalars.reduce_scalar_mod")
    m["multipoly.raising_table.ms"] = 1e3 * sum(s.seconds for s in setup_spans if s.name == H + "raising_table")
    oracle = tracer.select(H + "invariant_dimension_oracle")
    for d in (16, 18, 20, 22, 24):
        m["hilbert.oracle.d%d.s" % d] = sum(s.seconds for s in oracle if s.detail == d)
    basis = [s for s in tracer.select(H + "monomial_basis") if s.detail[0] == 24]
    m["hilbert.basis.d24.dim_v0"] = sum(s.detail[2] for s in basis if s.detail[1] == 0)
    m["hilbert.basis.d24.dim_v2"] = sum(s.detail[2] for s in basis if s.detail[1] == 2)
    m["hilbert.basis.d24.s"] = sum(s.seconds for s in basis)
    m["hilbert.molien.ms"] = 1e3 * tracer.total(H + "molien_series")
    m["qseries.borcherds.ms"] = 1e3 * tracer.total(Q + "borcherds_input")
    m["qseries.eisenstein.ms"] = 1e3 * tracer.total(Q + "eisenstein")
    for k in ("classify", "invariant", "verify", "hilbert", "qseries", "error", "import"):
        m["cli.%s.ms" % k] = 0.0  # set by the cli workload, which times subprocesses
    m["cli.exit_mismatch"] = traced.known_defects
    m.update(workload.layer_extras(traced.jobs, traced.samples))
    return m


def machine():
    import numpy
    import sympy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "sympy": sympy.__version__, "numpy": numpy.__version__, "arch": platform.machine()}


def digest(canon):
    return hashlib.sha256(json.dumps(canon, sort_keys=True).encode()).hexdigest()


def pinned_digest(name):
    with open(DIGESTS) as fh:
        return json.load(fh).get(name)


def run_workload(name, seed, seconds, trace):
    """Run one workload; returns (report, the metrics BENCHMARK.json
    declares in its order, tally)."""
    tracer = Tracer() if trace else None
    own_setup, workload, jobs = setup(name, seed, tracer)
    setups = [own_setup]
    if trace:
        setup_spans, tracer.spans = tracer.spans, []
        tally, elapsed = Tally(timer=False, numpy_kinds=workload.NUMPY_KINDS), 0.0
        for job in jobs:
            tally.run(job, 0)
        tally.close()
        traced = Tally(timer=False, numpy_kinds=workload.NUMPY_KINDS)
        for job in jobs:  # the same inputs again, so the difference is the tracing
            traced.run(job, 1, tracer)
        traced.close()
        tracer.uninstall()
        declared = layer_metrics(tracer, setup_spans, workload, traced)
        declared["trace.overhead.pass_s"] = traced.pass_s(workload.MIX) - tally.pass_s(workload.MIX)
        for attr in ("attempted", "failed", "known_defects"):
            setattr(tally, attr, getattr(tally, attr) + getattr(traced, attr))
        tally.problems += traced.problems
        props_jobs = tally.jobs + traced.jobs
    else:
        tally, elapsed, probed = measure(workload, jobs, seconds, lambda: setup_probe(name, seed),
                                         SETUP_PROBES)
        setups += probed
        declared = {"setup_s": statistics.median(setups), "pass_s": tally.pass_s(workload.MIX)}
        props_jobs = tally.jobs
    declared = {n: declared[n] for n, _, _ in (PER_LAYER if trace else END_TO_END)}

    dig = digest(tally.canon)
    digest_ok = seed != DIGEST_SEED or dig == pinned_digest(name)
    if not digest_ok:
        tally.failed += 1
        tally.problems.append("outputs at seed %d differ from the pinned digest" % DIGEST_SEED)
    own = {"setup_s": (statistics.median(setups), "s", "median of %d set-ups" % len(setups)),
             "fail_frac": ((tally.failed + tally.known_defects) / tally.attempted, "ratio",
                           "%d failed + %d known defects of %d" % (tally.failed, tally.known_defects,
                                                                  tally.attempted))}
    own.update(workload.workload_metrics(tally.samples))
    report = {
        "workload": name, "seed": seed, "trace": int(trace), "seconds": seconds,
        "measured_s": elapsed, "setups_s": setups, "machine": machine(),
        "workload_metrics": {k: {"value": v, "unit": u, "note": n} for k, (v, u, n) in own.items()},
        "pass_s": tally.pass_s(workload.MIX),
        "pass_wall_s": sum(w * statistics.median(tally.raw[k]) for k, w in workload.MIX.items()
                           if k in tally.raw),
        "host_slowdown": tally.clock.median_slowdown(),
        "samples": {k: len(v) for k, v in tally.samples.items()},
        "kind_median_s": {k: statistics.median(v) for k, v in tally.samples.items()},
        "attempted": tally.attempted, "failed": tally.failed, "known_defects": tally.known_defects,
        "digest": dig, "digest_checked": seed == DIGEST_SEED,
        "inputs": workload.input_properties(props_jobs),
    }
    return report, declared, tally


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["surfaces", "certify", "series", "cli", "all"])
    ap.add_argument("--seed", type=int, default=DIGEST_SEED)
    ap.add_argument("--seconds", type=float, default=18)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "ellk3", "__init__.py")):
        print("error: ellk3 sources not found under %s" % SRC, file=sys.stderr)
        return 2
    if args.setup_probe:
        try:
            seconds = setup(args.workload, args.seed)[0]
        finally:
            shutil.rmtree(WORKDIR, ignore_errors=True)
        print(json.dumps({"setup_s": seconds}))
        return 0

    names = ["surfaces", "certify", "series", "cli"] if args.workload == "all" else [args.workload]
    units = dict((n, u) for n, u, _ in END_TO_END + PER_LAYER)
    correct, attempted, failed, metrics = True, 0, 0, {}
    try:
        for name in names:
            report, declared, tally = run_workload(name, args.seed, args.seconds, args.trace)
            print("# workload %s, seed %d, trace %d" % (name, args.seed, args.trace))
            for k, v in report["workload_metrics"].items():
                print("%-16s %14.6g %-5s %s" % (k, v["value"], v["unit"], v["note"]))
            for p in tally.problems[:20]:
                print("problem: %s" % p.strip(), file=sys.stderr)
            print("report " + json.dumps(report, sort_keys=True))
            correct = correct and tally.failed == 0
            attempted += tally.attempted
            failed += tally.failed
            prefix = name + "/" if args.workload == "all" else ""
            metrics.update({prefix + k: {"value": v, "unit": units[k]} for k, v in declared.items()})
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(WORKDIR))
        except OSError:
            pass
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
