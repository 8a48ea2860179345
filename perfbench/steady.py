"""Steadiness check for the benchmark, run from the root of a checkout:

    python3 perfbench/steady.py --workloads surfaces,cli --seeds 1-10
    python3 perfbench/steady.py --workloads certify --trace-repeat 3

The first form runs run.py once per seed and workload, one run at a time,
and prints for every end-to-end metric (and every workload metric of the
human report) its median and its spread: the distance between the first
and third quartiles (statistics.quantiles, n=4) over the median.  A
spread must stay below the metric's bound from BENCHMARK.json; the target
is a third of it; the exit code is 1 when any spread reaches its bound.
With ``--out`` the runs are also written as a baseline file: the machine,
and per workload the medians, the spreads and each seed's input
properties (perfbench/baseline.json was written this way).  The second
form runs the traced pass twice with one seed and lists every count that
did not repeat exactly.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d exited %d: %s" % (workload, seed, p.returncode, p.stderr[-600:]))
    report = next(json.loads(l[len("report "):]) for l in lines if l.startswith("report "))
    return json.loads(lines[-1]), report


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2 if q2 else float("inf")


def seed_range(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-10", type=seed_range)
    ap.add_argument("--trace-repeat", type=int, metavar="SEED")
    ap.add_argument("--out", help="write the medians, spreads and input properties here as JSON")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    baseline = {"about": "Untraced runs, from: python3 perfbench/steady.py %s"
                         % " ".join(sys.argv[1:]),
                "run_seconds": seconds, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        if args.trace_repeat is not None:
            a, b = (run_once(workload, args.trace_repeat, seconds, 1)[0]["metrics"] for _ in range(2))
            diff = [k for k, u in units.items() if u == "count" and a[k]["value"] != b[k]["value"]]
            print("%s: counts %s" % (workload, "repeat exactly" if not diff else "differ: %s" % diff))
            ok = ok and not diff
            continue
        results = []
        for seed in args.seeds:
            result, report = run_once(workload, seed, seconds, 0)
            results.append((result, report))
            print("  %s seed %d: %s" % (workload, seed, {k: round(v["value"], 4) for k, v in
                                                         result["metrics"].items()}), flush=True)
        summary = {"median": {}, "spread": {}, "runs": []}
        for name, bound in bounds.items():
            med, s = spread([r["metrics"][name]["value"] for r, _ in results])
            summary["median"][name], summary["spread"][name] = round(med, 6), round(s, 4)
            verdict = "below a third" if s < bound / 3 else "within bound" if s < bound else "OVER BOUND"
            ok = ok and s < bound
            print("%-10s %-16s median %10.4f  spread %.4f  bound %.2f  %s"
                  % (workload, name, med, s, bound, verdict))
        med, s = spread([rep["pass_wall_s"] for _, rep in results])
        print("%-10s %-16s median %10.4f  spread %.4f  (wall clock, report only)" % (workload, "pass_wall_s", med, s))
        for name in results[0][1]["workload_metrics"]:
            if name in bounds:
                continue
            vals = [rep["workload_metrics"][name]["value"] for _, rep in results]
            med, s = spread(vals) if all(vals) else (statistics.median(vals), None)
            summary["median"][name] = round(med, 6)
            summary["spread"][name] = None if s is None else round(s, 4)
            if s is not None:
                print("%-10s %-16s median %10.4f  spread %.4f  (report only)" % (workload, name, med, s))
        for result, report in results:
            baseline["machine"] = report["machine"]
            summary["runs"].append({
                "seed": report["seed"], "attempted": result["attempted"], "failed": result["failed"],
                "known_defects": report["known_defects"], "inputs": report["inputs"],
                "pass_wall_s": round(report["pass_wall_s"], 6),
                "host_slowdown": round(report["host_slowdown"], 4),
                **{name: round(result["metrics"][name]["value"], 6) for name in bounds}})
        baseline["workloads"][workload] = summary
    if args.out and baseline["workloads"]:
        with open(args.out, "w") as fh:
            json.dump(baseline, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
