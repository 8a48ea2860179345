"""Static checks on the benchmark's own sources: it calls only public names
that ellk3 keeps, and BENCHMARK.json declares exactly the metrics run.py
reports."""

import ast
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

# internal helpers that may be renamed or removed at any time
FORBIDDEN = {
    "det_bareiss", "det_bareiss_int", "det_mod", "_det_dispatch", "sylvester_matrix",
    "SylvesterMatrix", "_poly_divmod_mod", "_kernel_mod_p", "_raising_matrix",
    "binary_partials", "binary_substitute", "series_arithmetic",
}
FORBIDDEN_PREFIXES = ("det_bareiss", "_interp_")


def benchmark_sources():
    for name in sorted(os.listdir(HERE)):
        if name.endswith(".py") and not name.startswith("test_"):
            yield name, os.path.join(HERE, name)


def used_names(path):
    """Identifiers, attribute names, imported names and string constants."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.split(".")[-1]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value.split(".")[-1]


def test_only_public_api():
    bad = []
    for name, path in benchmark_sources():
        for ident in used_names(path):
            if ident in FORBIDDEN or ident.startswith(FORBIDDEN_PREFIXES):
                bad.append("%s uses %s" % (name, ident))
    assert not bad, bad


def test_traced_functions_are_public():
    from tracer import TRACED_FUNCTIONS, TRACED_METHODS

    names = [n for ns in TRACED_FUNCTIONS.values() for n in ns]
    names += [n for classes in TRACED_METHODS.values() for ns in classes.values() for n in ns]
    assert not [n for n in names if n.startswith("_") or n in FORBIDDEN]


def test_benchmark_json_matches_run():
    import run

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    assert declared == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.PER_LAYER
    from workloads import WORKLOADS

    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
