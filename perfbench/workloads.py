"""The four benchmark workloads: surfaces, certify, series and cli.

A workload turns (seed, pass index) into a fixed list of jobs.  Each job
calls ellk3's public API (or its CLI, in a subprocess), and comes with a
check built from identities that hold for any seed and a canonical form
of its exact output for the digest.  ``MIX`` weighs the job kinds of one
pass: ``pass_s`` is the sum over kinds of weight times the kind's median
job time.
"""

import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction

from tracer import scalar_bits


class Job:
    """One timed operation.  ``check(result)`` returns a list of problems,
    and ``canon(result)`` the exact output that the seed-0 digest pins
    (None for jobs whose output is an error message: a fixed defect must
    not change the digest).  Jobs of a kind missing from the workload's
    ``MIX`` are probes: timed and checked, but left out of ``pass_s``."""

    __slots__ = ("kind", "fn", "check", "canon", "info")

    def __init__(self, kind, fn, check, canon, info=None):
        self.kind = kind
        self.fn = fn
        self.check = check
        self.canon = canon
        self.info = info


def canon_scalar(c):
    """Exact decimal form of an int, Fraction or residue."""
    if isinstance(c, (int, Fraction)):
        c = Fraction(c)
        return str(c.numerator) if c.denominator == 1 else "%d/%d" % (c.numerator, c.denominator)
    return str(c)


def coefficient_bits(u):
    """Largest numerator or denominator bit size among a surface's 22
    coefficients."""
    return max(scalar_bits(c) for c in u.g2_coeffs + u.g3_coeffs)


def median(xs):
    return statistics.median(xs) if xs else 0.0


def nearest_rank(xs, q):
    """The q-quantile of xs by nearest rank, with the number of samples
    strictly above it."""
    s = sorted(xs)
    if not s:
        return 0.0, 0
    k = max(0, math.ceil(q * len(s)) - 1)
    return s[k], sum(1 for x in s if x > s[k])


class Workload:
    name = None
    MIX = {}
    SUBPROCESS = False  # jobs wait for a subprocess: no host samples during them
    NUMPY_KINDS = ()  # job kinds dominated by numpy, measured against the numpy reference

    def __init__(self, api, seed, workdir):
        self.api = api
        self.seed = seed
        self.workdir = workdir
        self.prime = api.inv.DEFAULTS.homogeneity_prime  # the pinned 62-bit prime

    def rng(self, index):
        return random.Random(self.seed * 1000003 + index)

    def jobs(self, index):
        raise NotImplementedError

    def workload_metrics(self, samples):
        """The workload's own end-to-end metrics: name -> (value, unit, note)."""
        return {}

    def input_properties(self, jobs):
        return {}

    def layer_extras(self, jobs, samples):
        """Per-layer metrics measured by the workload itself (not spans)."""
        return {}


# -- surfaces ----------------------------------------------------------

FIXTURES = ("type_ii", "i2_collision", "non_minimal", "w_divides_h", "h_zero")
SURFACE_MIX = dict([("small", 75), ("large", 10), ("rational", 5)] + [(f, 2) for f in FIXTURES])


def place_key(form):
    """A place as its coefficient vector scaled so the first nonzero entry
    is 1 (x is (1, 0), the infinity place w is (0, 1))."""
    coeffs = [Fraction(c) for c in form.coeffs]
    lead = next(c for c in coeffs if c)
    return tuple(c / lead for c in coeffs)


X_KEY = (Fraction(1), Fraction(0))
W_KEY = (Fraction(0), Fraction(1))


class Surfaces(Workload):
    """Full surface reports (r96, k552, delta264, fiber_profile) on a mix of
    small, large, rational and degenerate surfaces."""

    name = "surfaces"
    MIX = SURFACE_MIX

    # input generation

    def _r96_nonzero(self, u):
        return bool(self.api.inv.r96(u.reduce_mod(self.prime)).value)

    def _form(self, rng, n, bound, nonzero_last=False):
        while True:
            c = [rng.randint(-bound, bound) for _ in range(n + 1)]
            if any(c) and (c[-1] or not nonzero_last):
                return self.api.bf.BinaryForm(n, c)

    def _surface(self, rng, cls):
        api = self.api
        BF = api.bf.BinaryForm
        make = api.ws.SurfaceParams.make
        while True:
            if cls == "small":
                u = api.inv.random_surface(rng, 9)
            elif cls == "large":
                u = api.inv.random_surface(rng, 10 ** 6)
            elif cls == "rational":
                u = make(*[[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)]
                           for n in (9, 13)])
            elif cls == "type_ii":
                x = BF(1, [1, 0])
                u = make((x * self._form(rng, 7, 3, True)).coeffs, (x * self._form(rng, 11, 3, True)).coeffs)
                return u
            elif cls == "non_minimal":
                x4 = BF(4, [1, 0, 0, 0, 0])
                x6 = BF(6, [1, 0, 0, 0, 0, 0, 0])
                u = make((x4 * self._form(rng, 4, 3, True)).coeffs, (x6 * self._form(rng, 6, 3, True)).coeffs)
                return u
            elif cls == "h_zero":
                f = self._form(rng, 4, 3)
                return make((-3 * f ** 2).coeffs, (2 * f ** 3).coeffs)
            elif cls == "i2_collision":
                f = self._form(rng, 4, 3, True)
                r = self._form(rng, 10, 3, True)
                g3 = 2 * f ** 3 + BF(2, [1, 0, 0]) * r
                u = make((-3 * f ** 2).coeffs, g3.coeffs)
            elif cls == "w_divides_h":
                s = rng.choice([1, 2])
                g2 = [-3 * s * s] + [rng.randint(-9, 9) for _ in range(8)]
                g3 = [2 * s ** 3] + [rng.randint(-9, 9) for _ in range(12)]
                u = make(g2, g3)
                if not api.ws.assemble(u)[2].coeffs[1]:
                    continue  # want w to divide h exactly once
            if self._r96_nonzero(u):
                return u

    def jobs(self, index):
        rng = self.rng(index)
        classes = [c for c, n in SURFACE_MIX.items() for _ in range(n)]
        rng.shuffle(classes)
        jobs = [self._report_job(cls, self._surface(rng, cls)) for cls in classes]
        pq = [(rng.randint(-10 ** 6, 10 ** 6), rng.randint(-10 ** 6, 10 ** 6)) for _ in range(3)]
        jobs.append(Job("frozen_disc", lambda: self._frozen(pq), self._check_frozen,
                        lambda r: [canon_scalar(v) for v in r[1]]))
        return jobs

    # jobs

    def _report_job(self, cls, u):
        inv, ws = self.api.inv, self.api.ws

        def run():
            out = {"r96": inv.r96(u).value}
            try:
                out["k552"] = inv.k552(u).value
            except ValueError:
                out["k552"] = "ValueError"
            try:
                out["delta264"] = inv.delta264(u).value
            except ZeroDivisionError:
                out["delta264"] = "ZeroDivisionError"
            out["fibers"] = ws.fiber_profile(u)
            out["fibers_json"] = out["fibers"].to_json_dict()  # the report as the CLI serializes it
            return out

        return Job(cls, run, lambda r: self._check_report(cls, u, r), self._canon_report, info=u)

    def _frozen(self, pq):
        BF = self.api.bf.BinaryForm
        disc = self.api.elim.discriminant_binary
        return pq, [disc(BF(3, [1, 0, p, q])) for p, q in pq]

    @staticmethod
    def _check_frozen(result):
        pq, discs = result
        return ["disc(x^3 + %d x w^2 + %d w^3) = %s" % (p, q, d)
                for (p, q), d in zip(pq, discs) if d != 3 * (4 * p ** 3 + 27 * q ** 2)]

    @staticmethod
    def _canon_report(r):
        rep = r["fibers"]
        places = sorted(
            [[canon_scalar(c) for c in place_key(p.place)], p.residue_degree,
             min(p.m2, 10 ** 6), min(p.m3, 10 ** 6), p.d, p.kodaira]
            for p in rep.places
        )
        return {
            "r96": canon_scalar(r["r96"]), "k552": canon_scalar(r["k552"]),
            "delta264": canon_scalar(r["delta264"]), "in_U": rep.in_U,
            "h_is_zero": rep.h_is_zero, "euler_sum": rep.euler_sum, "places": places,
        }

    def _check_report(self, cls, u, r):
        bad = []
        rv, kv, dv, rep = r["r96"], r["k552"], r["delta264"], r["fibers"]
        places = {place_key(p.place): p for p in rep.places}
        if rep.h_is_zero:
            if kv != "ValueError" or rep.places or rep.in_U:
                bad.append("h = 0 must give no places, not in U, and k552 refused")
        else:
            if kv == "ValueError":
                bad.append("k552 refused a surface with h != 0")
            if rep.euler_sum != 24:
                bad.append("euler_sum %d != 24" % rep.euler_sum)
            if (kv == 0) != any(p.d >= 2 for p in rep.places):
                bad.append("k552 = 0 must hold exactly when h has a repeated root")
            if (rv == 0) != any(p.m2 >= 1 and p.m3 >= 1 for p in rep.places):
                bad.append("r96 = 0 must hold exactly when g2, g3 share a root")
            if rep.in_U == any(p.kodaira == "NON-MINIMAL" for p in rep.places):
                bad.append("in_U must fail exactly at a non-minimal place")
        if (dv == "ZeroDivisionError") != (rv == 0):
            bad.append("delta264 must raise ZeroDivisionError exactly when r96 = 0")
        elif rv != 0 and kv != rv ** 3 * dv:
            bad.append("k552 != r96^3 * delta264")
        elif rv != 0 and cls != "rational" and type(dv) is not int:
            bad.append("delta264 of an integer surface is not an integer")

        def pinned(key, want):
            p = places.get(key)
            got = None if p is None else (p.m2, p.m3, p.d, p.kodaira)
            if got != want:
                bad.append("%s fixture: place %s has %s, want %s" % (cls, key, got, want))

        if cls == "type_ii":
            pinned(X_KEY, (1, 1, 2, "II"))
        elif cls == "i2_collision":
            pinned(X_KEY, (0, 0, 2, "I2"))
            if kv != 0 or rv == 0:
                bad.append("I2 collision must have k552 = 0 and r96 != 0")
        elif cls == "non_minimal":
            p = places.get(X_KEY)
            if p is None or (p.m2, p.m3, p.kodaira) != (4, 6, "NON-MINIMAL") or rep.in_U:
                bad.append("non-minimal fixture: place x is %s" % (p,))
        elif cls == "w_divides_h":
            pinned(W_KEY, (0, 0, 1, "I1"))
        elif cls == "h_zero" and not rep.h_is_zero:
            bad.append("h = 0 fixture has h != 0")
        return bad

    # metrics

    def workload_metrics(self, samples):
        times = [t for c in SURFACE_MIX for t in samples.get(c, [])]
        p50, _ = nearest_rank(times, 0.5)
        p90, beyond = nearest_rank(times, 0.9)
        note = "n=%d, %d beyond p90" % (len(times), beyond)
        return {
            "surface_per_s": (len(times) / sum(times) if times else 0.0, "1/s", "n=%d" % len(times)),
            "surface_ms.p50": (p50 * 1e3, "ms", note),
            "surface_ms.p90": (p90 * 1e3, "ms", note),
        }

    def input_properties(self, jobs):
        surf = [j for j in jobs if j.kind in self.MIX]
        props = {"surfaces": len(surf), "share": {}, "coefficient_bits": {}}
        for cls in SURFACE_MIX:
            bits = sorted(coefficient_bits(j.info) for j in surf if j.kind == cls)
            props["share"][cls] = round(len(bits) / len(surf), 4) if surf else 0
            if bits:
                props["coefficient_bits"][cls] = [bits[0], statistics.median(bits), bits[-1]]
        return props


# -- certify -----------------------------------------------------------

VERIFY_TRIALS = 10


class Certify(Workload):
    """Slice divisibility certificates over Q and mod the pinned 62-bit
    prime, and one reduced verify_bulk job."""

    name = "certify"
    MIX = {"q_line": 2, "p_line": 2, "verify": 1}

    def jobs(self, index):
        inv = self.api.inv
        rng = self.rng(index)
        lines = [(inv.random_surface(rng, 9), inv.random_surface(rng, 9)) for _ in range(2)]
        vseed = rng.randrange(2 ** 31)
        p = self.prime
        jobs = []
        for line in lines:
            shared = {}

            def q_check(w, shared=shared):
                shared["q"] = w
                return self._check_witness(w, None)

            def p_check(w, shared=shared):
                bad = self._check_witness(w, p)
                q = shared.get("q")
                if q is not None and q.success and w.success:
                    reduced = [Fraction(c).numerator * pow(Fraction(c).denominator, -1, p) % p
                               for c in q.quotient]
                    if _trim(reduced) != _trim([c % p for c in w.quotient]):
                        bad.append("mod-p quotient is not the reduction of the rational one")
                return bad

            jobs += [
                Job("q_line", lambda line=line: inv.slice_divisibility(*line), q_check,
                    self._canon_witness, info=line + (None,)),
                Job("p_line", lambda line=line: inv.slice_divisibility(*line, modulus=p), p_check,
                    self._canon_witness, info=line + (p,)),
            ]
        jobs.append(Job("verify", lambda: inv.verify_bulk(vseed, trials=VERIFY_TRIALS),
                        lambda r: self._check_verify(r, vseed), lambda r: r, info=vseed))
        return jobs

    @staticmethod
    def _check_witness(w, modulus):
        bad = []
        if not w.success:
            bad.append("slice division left a remainder")
        if w.quotient_degree != w.k_degree - w.r3_degree:
            bad.append("quotient degree %d != %d - %d" % (w.quotient_degree, w.k_degree, w.r3_degree))
        if w.modulus != modulus:
            bad.append("witness modulus %s != %s" % (w.modulus, modulus))
        return bad

    def _check_verify(self, r, vseed):
        want = {"seed": vseed, "trials": VERIFY_TRIALS, "modulus": self.prime,
                "convention_tag": self.api.elim.CONVENTION_TAG}
        bad = ["verify_bulk reported failures: %s" % r["failures"]] if r["failures"] else []
        if {k: r.get(k) for k in want} != want:
            bad.append("verify_bulk report header %s" % {k: r.get(k) for k in want})
        return bad

    @staticmethod
    def _canon_witness(w):
        return {"success": w.success, "degrees": [w.quotient_degree, w.k_degree, w.r3_degree],
                "quotient": [canon_scalar(c) for c in w.quotient]}

    def workload_metrics(self, samples):
        return {
            "slice_q_s": (median(samples.get("q_line", [])), "s", "n=%d" % len(samples.get("q_line", []))),
            "slice_p_s": (median(samples.get("p_line", [])), "s", "n=%d" % len(samples.get("p_line", []))),
            "verify_s": (median(samples.get("verify", [])), "s", "n=%d" % len(samples.get("verify", []))),
        }

    def input_properties(self, jobs):
        lines = [j.info for j in jobs if j.kind != "verify"]
        bits = sorted(max(coefficient_bits(u0), coefficient_bits(u1)) for u0, u1, _ in lines)
        last = self.api.inv.K552_U_DEGREE  # the farthest point evaluated on a line
        far = max((abs(a + last * b).bit_length() for u0, u1, _ in lines
                   for a, b in zip(u0.g2_coeffs + u0.g3_coeffs, u1.g2_coeffs + u1.g3_coeffs)), default=0)
        return {
            "lines": {"q": sum(1 for l in lines if l[2] is None),
                      "p": sum(1 for l in lines if l[2] is not None)},
            "verify_jobs": sum(1 for j in jobs if j.kind == "verify"),
            "verify_trials": VERIFY_TRIALS,
            "coefficient_bits": [bits[0], bits[-1]] if bits else [],
            "farthest_point_bits": far,
        }

    def layer_extras(self, jobs, samples):
        """Share of a slice line's time spent in its evaluations, for the
        first line of each domain: the line is certified again, untraced,
        and then its points are re-timed through public k552 and r96, back
        to back so that host load affects both."""
        inv, make = self.api.inv, self.api.ws.SurfaceParams.make
        evals = {"q": 0.0, "p": 0.0}
        total = {"q": 0.0, "p": 0.0}
        for u0, u1, p in [j.info for j in jobs if j.kind != "verify"]:
            dom = "q" if p is None else "p"
            if total[dom]:
                continue
            t0 = time.perf_counter()
            inv.slice_divisibility(u0, u1, modulus=p)
            total[dom] += time.perf_counter() - t0
            for s in range(inv.K552_U_DEGREE + 1):
                u = make([a + s * b for a, b in zip(u0.g2_coeffs, u1.g2_coeffs)],
                         [a + s * b for a, b in zip(u0.g3_coeffs, u1.g3_coeffs)])
                if p is not None:
                    u = u.reduce_mod(p)
                t0 = time.perf_counter()
                inv.k552(u)
                inv.r96(u)
                evals[dom] += time.perf_counter() - t0
        return {"invariants.slice.eval_share.%s" % d: (evals[d] / total[d] if total[d] else 0.0)
                for d in ("q", "p")}


def _trim(a):
    a = list(a)
    while a and not a[-1]:
        a.pop()
    return a


# -- series ------------------------------------------------------------

ORACLE_DEGREES = tuple(range(25))
MOLIEN_N = 300
BORCHERDS_N = 300
SERIES_REPEATS = 9  # short jobs: enough samples for a median that bursts of host load do not move


class Series(Workload):
    """The certified oracle sweep to degree 24, the character series to
    degree 300 and the Borcherds input to q^300."""

    name = "series"
    MIX = {"oracle_sweep": 1, "molien300": 1, "qseries300": 1}
    NUMPY_KINDS = ("oracle_sweep",)

    def jobs(self, index):
        hil, qs = self.api.hil, self.api.qs
        rng = self.rng(index)
        degrees = list(ORACLE_DEGREES)
        rng.shuffle(degrees)
        jobs = [Job("oracle_sweep", lambda: {d: hil.invariant_dimension_oracle(d) for d in degrees},
                    self._check_sweep, lambda r: [r[d] for d in ORACLE_DEGREES])]
        jobs += [Job("molien300", lambda: hil.character_series(MOLIEN_N), self._check_molien,
                     lambda r: [list(r[0].coefficients), list(r[1].coefficients)])
                 for _ in range(SERIES_REPEATS)]
        jobs += [Job("qseries300", lambda: qs.borcherds_input(BORCHERDS_N), self._check_borcherds,
                     lambda r: [r.e0] + [canon_scalar(c) for c in r.coeffs])
                 for _ in range(SERIES_REPEATS)]
        rng.shuffle(jobs)
        return jobs

    def _check_sweep(self, dims):
        H = self.api.hil.molien_series(max(ORACLE_DEGREES))
        bad = ["oracle(%d) = %d != Molien %d" % (d, dims[d], H[d]) for d in ORACLE_DEGREES if dims[d] != H[d]]
        if (H[0], H[4], H[6], H[8], H[12]) != (1, 0, 0, 1, 2):
            bad.append("Molien anchors at degrees 0, 4, 6, 8, 12")
        return bad

    @staticmethod
    def _check_molien(r):
        plain, ext = r
        if len(plain) != MOLIEN_N + 1 or plain[0] != 1:
            return ["character_series(%d) has the wrong length or constant term" % MOLIEN_N]
        return ["with_characters[%d] != plain[%d] + plain[%d]" % (k, k, k - 132)
                for k in range(MOLIEN_N + 1)
                if ext[k] != plain[k] + (plain[k - 132] if k >= 132 else 0)]

    @staticmethod
    def _check_borcherds(b):
        bad = []
        if b.e0 != -1 or [b[k] for k in range(-1, 3)] != [1, 264, 8244, 139520]:
            bad.append("Borcherds input does not start q^-1 + 264 + 8244 q + 139520 q^2")
        if any(Fraction(c).denominator != 1 for c in b.coeffs):
            bad.append("E4 / Delta has a non-integral coefficient")
        return bad

    def workload_metrics(self, samples):
        return {
            "oracle24_s": (median(samples.get("oracle_sweep", [])), "s",
                           "n=%d" % len(samples.get("oracle_sweep", []))),
            "molien300_s": (median(samples.get("molien300", [])), "s",
                            "n=%d" % len(samples.get("molien300", []))),
            "qseries_s": (median(samples.get("qseries300", [])), "s",
                          "n=%d" % len(samples.get("qseries300", []))),
        }

    def input_properties(self, jobs):
        return {"oracle_degrees": [min(ORACLE_DEGREES), max(ORACLE_DEGREES)],
                "molien_degree": MOLIEN_N, "borcherds_terms": BORCHERDS_N,
                "repeats": SERIES_REPEATS}


# -- cli ---------------------------------------------------------------

# malformed inputs the CLI is known to mishandle: the job, its wrong
# behaviour today, and how that behaviour is recognised
KNOWN_DEFECTS = {
    "zero-denominator": "classify with a '1/0' coefficient exits 1 with a traceback",
    "negative-degree": "hilbert --max-degree -1 exits 1 with a traceback",
    "negative-terms": "qseries --terms -3 exits 0 with an empty coefficient list",
}
HILBERT_CLI_DEGREE = 16


class Cli(Workload):
    """Sequential subprocess runs of every ellk3 command on small inputs,
    and malformed inputs that must exit 2 with a message."""

    name = "cli"
    SUBPROCESS = True
    # verify spends ~3.5 s in verify_bulk (certify times that work), so it
    # runs once per run as a probe rather than dominating every pass
    MIX = {"classify": 1, "invariant": 3, "hilbert": 1, "qseries": 1, "error": 5}
    COMMANDS = tuple(MIX) + ("verify",)

    def __init__(self, api, seed, workdir):
        super().__init__(api, seed, workdir)
        os.makedirs(workdir, exist_ok=True)
        self.env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(api.inv.__file__))
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")
        hil = api.hil
        H = hil.character_series(HILBERT_CLI_DEGREE)[0]
        self.hilbert_rows = [{"degree": d, "dim": H[d], "oracle_dim": hil.invariant_dimension_oracle(d)}
                             for d in range(HILBERT_CLI_DEGREE + 1)]
        b = api.qs.borcherds_input(2)
        self.qseries_want = {"leading_exponent": b.e0, "coefficients": [canon_scalar(c) for c in b.coeffs[:4]]}
        self.malformed = self._write("zero_denominator.json", {"g2": ["1/0"] + ["1"] * 8, "g3": ["1"] * 13})
        self.short = self._write("short.json", {"g2": ["1"] * 8, "g3": ["1"] * 13})

    def _write(self, name, data):
        path = os.path.join(self.workdir, name)
        with open(path, "w") as fh:
            json.dump(data, fh)
        return path

    def _python(self, *args):
        def run():
            p = subprocess.run([sys.executable, *args], env=self.env, capture_output=True, text=True,
                               timeout=170)
            return p.returncode, p.stdout, p.stderr
        return run

    def _cli(self, *args):
        return self._python("-m", "ellk3.cli", *args)

    def jobs(self, index):
        inv, ws = self.api.inv, self.api.ws
        rng = self.rng(index)
        u = inv.random_surface(rng, 9)
        while not inv.r96(u).value:
            u = inv.random_surface(rng, 9)
        path = self._write("surface_%d.json" % index, u.to_json_dict())
        rep = ws.fiber_profile(u).to_json_dict()
        vals = {"r96": inv.r96(u).value, "k552": inv.k552(u).value, "delta264": inv.delta264(u).value}
        vseed = rng.randrange(2 ** 31)
        verify_want = {"seed": vseed, "trials": 1, "modulus": self.prime,
                       "convention_tag": self.api.elim.CONVENTION_TAG, "failures": []}

        def expect_json(want, code):
            def check(r):
                rc, out, err = r
                if rc != code:
                    return ["exit %d, want %d: %s" % (rc, code, err.strip()[-200:])]
                return [] if json.loads(out) == want else ["output differs from the in-process result"]
            return check

        def invariant(name):
            want = {"name": name, "value": canon_scalar(vals[name]),
                    "declared_weight": inv.DECLARED_WEIGHTS[name],
                    "convention_tag": self.api.elim.CONVENTION_TAG}
            return Job("invariant", self._cli("invariant", name, "--input", path),
                       expect_json(want, 0), _canon_cli)

        jobs = [
            Job("classify", self._cli("classify", "--input", path),
                expect_json(rep, 0 if rep["in_U"] else 1), _canon_cli),
            invariant("r96"), invariant("k552"), invariant("delta264"),
            Job("hilbert", self._cli("hilbert", "--max-degree", str(HILBERT_CLI_DEGREE), "--oracle"),
                expect_json(self.hilbert_rows, 0), _canon_cli),
            Job("qseries", self._cli("qseries", "--terms", "4"), expect_json(self.qseries_want, 0), _canon_cli),
            Job("error", self._cli("classify", "--input", self.malformed), _usage_error, None,
                info="zero-denominator"),
            Job("error", self._cli("hilbert", "--max-degree", "-1"), _usage_error, None,
                info="negative-degree"),
            Job("error", self._cli("qseries", "--terms", "-3"), _usage_error, None,
                info="negative-terms"),
            Job("error", self._cli("verify", "--trials", "0"), _usage_error, None),
            Job("error", self._cli("invariant", "r96", "--input", self.short), _usage_error, None),
            Job("import", self._python("-c", "import ellk3.cli"),
                lambda r: [] if r[0] == 0 else [r[2][-200:]], lambda r: r[0]),
        ]
        if index == 0:
            jobs.append(Job("verify", self._cli("verify", "--seed", str(vseed), "--trials", "1"),
                            expect_json(verify_want, 0), _canon_cli))
        return jobs

    def workload_metrics(self, samples):
        times = [t for k in self.COMMANDS for t in samples.get(k, [])]
        p50, _ = nearest_rank(times, 0.5)
        p90, beyond = nearest_rank(times, 0.9)
        note = "n=%d, %d beyond p90" % (len(times), beyond)
        return {"cli_ms.p50": (p50 * 1e3, "ms", note), "cli_ms.p90": (p90 * 1e3, "ms", note)}

    def input_properties(self, jobs):
        kinds = {}
        for j in jobs:
            kinds[j.kind] = kinds.get(j.kind, 0) + 1
        return {"commands_run": kinds, "known_defects": sorted(KNOWN_DEFECTS)}

    def layer_extras(self, jobs, samples):
        return {"cli.%s.ms" % k: median(samples.get(k, [])) * 1e3 for k in self.COMMANDS + ("import",)}


def _canon_cli(r):
    rc, out, err = r
    return [rc, out]


def _usage_error(r):
    """Malformed input must exit 2 with an 'error:' message and no traceback."""
    rc, out, err = r
    if rc == 2 and err.startswith("error:") and "Traceback" not in err:
        return []
    return ["exit %d: %s" % (rc, (err.strip() or out.strip())[-200:])]


def known_defect(job, result):
    """Whether a failed error job shows exactly its known wrong behaviour."""
    if job.kind != "error" or job.info not in KNOWN_DEFECTS:
        return False
    rc, out, err = result
    if job.info == "negative-terms":
        try:
            return rc == 0 and json.loads(out)["coefficients"] == []
        except (ValueError, KeyError, TypeError):
            return False
    return rc == 1 and "Traceback" in err


WORKLOADS = {w.name: w for w in (Surfaces, Certify, Series, Cli)}
