"""Command-line front end: classify / verify / hilbert / qseries /
invariant.

Exit codes: 0 on success (and in_U / no failures), 1 on domain-negative
results (not in U, verification failures), 2 on usage or parse errors.
All big integers serialize as exact decimal strings, at any size.  An
--output that cannot be a file in a writable directory is refused before
anything runs.  Each command imports the library modules it runs only
after its cheap argument checks, so start-up and a rejected option load
none of them.
"""

import argparse
import json
import os
import sys


class UsageError(Exception):
    pass


def _check_output(path):
    """Refuse an --output that is a directory or lies in a missing or
    unwritable one, before any work; the file itself is neither created
    nor truncated."""
    folder = os.path.dirname(path) or "."
    if os.path.isdir(path) or not os.path.isdir(folder) or not os.access(folder, os.W_OK):
        raise UsageError("cannot write %s: not a file in a writable directory" % path)


def _write(path, text):
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as e:
        raise UsageError("cannot write %s: %s" % (path, e))


def _emit(data, path):
    text = json.dumps(data, indent=2, sort_keys=True) + "\n"
    if path:
        _write(path, text)
    else:
        sys.stdout.write(text)


def _load_surface(path):
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    # ValueError: bad UTF-8, bad JSON, too many digits; RecursionError: nested too deeply
    except (OSError, ValueError, RecursionError) as e:
        raise UsageError("cannot read surface parameters from %s: %s" % (path, e))
    from .weierstrass import SurfaceParams

    try:
        return SurfaceParams.from_json_dict(raw)
    except (ValueError, TypeError, ZeroDivisionError) as e:
        raise UsageError("malformed surface parameters in %s: %s" % (path, e))


def cmd_classify(args):
    u = _load_surface(args.input)
    from .weierstrass import fiber_profile

    report = fiber_profile(u)
    _emit(report.to_json_dict(), args.output)
    return 0 if report.in_U else 1


def cmd_verify(args):
    if args.trials is not None and args.trials < 1:
        raise UsageError("--trials must be >= 1")
    from .invariants import check_modulus, verify_bulk

    try:
        check_modulus(args.modulus)
    except ValueError as e:
        raise UsageError("--%s" % e)
    report = verify_bulk(args.seed, trials=args.trials, modulus=args.modulus)
    _emit(report, args.output)
    return 0 if not report["failures"] else 1


def cmd_hilbert(args):
    N = args.max_degree
    if N < 0:
        raise UsageError("--max-degree must be >= 0")
    from .hilbert import ORACLE_MAX_DEGREE, character_series, invariant_dimension_oracle

    if args.oracle and N > ORACLE_MAX_DEGREE:
        raise UsageError(
            "--oracle refuses t-degrees above %d (got --max-degree %d)"
            % (ORACLE_MAX_DEGREE, N)
        )
    plain, ext = character_series(N)
    rows = []
    for d in range(N + 1):
        row = {"degree": d, "dim": plain[d]}
        if args.with_characters:
            row["dim_with_characters"] = ext[d]
        if args.oracle:
            row["oracle_dim"] = invariant_dimension_oracle(d)
        rows.append(row)
    if args.output and args.output.endswith(".csv"):
        cols = list(rows[0].keys())
        lines = [",".join(cols)]
        for row in rows:
            lines.append(",".join(str(row[c]) for c in cols))
        _write(args.output, "\n".join(lines) + "\n")
    else:
        _emit(rows, args.output)
    if args.oracle and any(r["dim"] != r["oracle_dim"] for r in rows):
        return 1
    return 0


def cmd_qseries(args):
    if args.terms < 1:
        raise UsageError("--terms must be >= 1")
    from .qseries import borcherds_input
    from .scalars import scalar_to_str

    N = args.terms - 2  # q^-1 and the constant term count as the first two
    series = borcherds_input(max(N, 0))
    data = {
        "leading_exponent": series.e0,
        "coefficients": [scalar_to_str(c) for c in series.coeffs[: args.terms]],
    }
    _emit(data, args.output)
    return 0


def cmd_invariant(args):
    u = _load_surface(args.input)
    from .invariants import delta264, k552, r96
    from .scalars import scalar_to_str

    fn = {"r96": r96, "k552": k552, "delta264": delta264}[args.name]
    try:
        val = fn(u)
    except (ZeroDivisionError, ValueError) as e:
        _emit({"name": args.name, "error": str(e)}, args.output)
        return 1
    _emit(
        {
            "name": val.name,
            "value": scalar_to_str(val.value),
            "declared_weight": val.declared_weight,
            "convention_tag": val.convention_tag,
        },
        args.output,
    )
    return 0


def build_parser():
    ap = argparse.ArgumentParser(
        prog="ellk3",
        description="Exact invariants and fiber geometry of elliptic K3 Weierstrass models",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="Kodaira fiber report for a surface parameter file")
    p.add_argument("--input", required=True)
    p.add_argument("--output")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("verify", help="bulk verification of the divisibility/invariance identities")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int)  # None: verify_bulk uses DEFAULTS.pointwise_trials
    p.add_argument("--modulus", type=int)
    p.add_argument("--output")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("hilbert", help="Molien-Weyl Hilbert series (optionally vs the kernel oracle)")
    p.add_argument("--max-degree", type=int, default=24)
    p.add_argument("--oracle", action="store_true")
    p.add_argument("--with-characters", action="store_true")
    p.add_argument("--output")
    p.set_defaults(fn=cmd_hilbert)

    p = sub.add_parser("qseries", help="coefficients of 1728 E4 / (E4^3 - E6^2)")
    p.add_argument("--terms", type=int, default=4)
    p.add_argument("--output")
    p.set_defaults(fn=cmd_qseries)

    p = sub.add_parser("invariant", help="evaluate r96 / k552 / delta264 at a parameter file")
    p.add_argument("name", choices=["r96", "k552", "delta264"])
    p.add_argument("--input", required=True)
    p.add_argument("--output")
    p.set_defaults(fn=cmd_invariant)

    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if args.output:
            _check_output(args.output)
        return args.fn(args)
    except UsageError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
