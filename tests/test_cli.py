import json
import os
import random
import subprocess
import sys
from decimal import Decimal

import pytest

from ellk3.binforms import BinaryForm
from ellk3.cli import main
from ellk3.invariants import k552, r96
from ellk3.weierstrass import SurfaceParams

GENERIC = SurfaceParams(
    [3, -1, 4, 1, -5, 9, 2, -6, 5], [3, 5, -8, 9, 7, -9, 3, 2, -3, 8, 4, -6, 2]
)
NONMIN = SurfaceParams([0, 0, 0, 0, 1, 0, 0, 0, 0], [0] * 6 + [1] + [0] * 6)


def write_surface(tmp_path, u, name="u.json"):
    path = tmp_path / name
    path.write_text(json.dumps(u.to_json_dict()))
    return str(path)


def run(args):
    return main(args)


def test_classify_good_surface(tmp_path, capsys):
    inp = write_surface(tmp_path, GENERIC)
    assert run(["classify", "--input", inp]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["in_U"] and report["euler_sum"] == 24


def test_classify_i2_fixture_exit_0(tmp_path, capsys):
    from test_weierstrass import A1_SURFACE

    inp = write_surface(tmp_path, A1_SURFACE)
    assert run(["classify", "--input", inp]) == 0
    report = json.loads(capsys.readouterr().out)
    assert sum(1 for p in report["places"] if p["kodaira"] == "I2") == 1


def test_classify_not_in_U_exit_1(tmp_path, capsys):
    inp = write_surface(tmp_path, NONMIN)
    assert run(["classify", "--input", inp]) == 1
    assert not json.loads(capsys.readouterr().out)["in_U"]


def test_classify_output_file_deterministic(tmp_path):
    inp = write_surface(tmp_path, GENERIC)
    out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert run(["classify", "--input", inp, "--output", out1]) == 0
    assert run(["classify", "--input", inp, "--output", out2]) == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_classify_corrupt_input_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"g2": ["1", "2"]')  # truncated JSON
    assert run(["classify", "--input", str(bad)]) == 2
    bad.write_text('{"g2": ["1"], "g3": []}')  # wrong shape
    assert run(["classify", "--input", str(bad)]) == 2
    assert run(["classify", "--input", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("command", [["classify"], ["invariant", "r96"]])
def test_non_utf8_surface_file_exit_2(tmp_path, capsys, command):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe")
    assert run(command + ["--input", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot read surface parameters from ")
    assert captured.out == ""


def test_surface_integer_past_the_digit_limit_exit_2(tmp_path, capsys):
    # json.load refuses an integer literal longer than the digit limit
    path = tmp_path / "big.json"
    path.write_text('{"g2": [%s%s], "g3": [%s]}' % ("1" * 5000, ", 1" * 8, ", ".join(["1"] * 13)))
    assert run(["classify", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot read surface parameters from ")
    assert captured.out == ""


def test_deeply_nested_surface_file_exit_2(tmp_path, capsys):
    # json.load raises RecursionError on arrays nested past the recursion limit
    path = tmp_path / "nested.json"
    path.write_text("[" * 100000 + "]" * 100000)
    assert run(["classify", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot read surface parameters from ")
    assert captured.out == ""


@pytest.mark.parametrize("name", ["h.json", "h.csv"])
def test_unwritable_output_exit_2(tmp_path, capsys, name):
    out = str(tmp_path / "missing" / name)
    assert run(["hilbert", "--max-degree", "8", "--output", out]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot write %s: " % out)
    assert captured.out == ""


def test_invariant_values_are_decimal_strings(tmp_path, capsys):
    inp = write_surface(tmp_path, GENERIC)
    assert run(["invariant", "r96", "--input", inp]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["declared_weight"] == 96
    assert data["value"] == str(r96(GENERIC).value)
    assert run(["invariant", "k552", "--input", inp]) == 0
    k = json.loads(capsys.readouterr().out)
    assert int(k["value"]) != 0 and k["declared_weight"] == 552
    assert run(["invariant", "delta264", "--input", inp]) == 0
    d = json.loads(capsys.readouterr().out)
    assert int(k["value"]) == int(d["value"]) * int(data["value"]) ** 3


def test_invariant_values_past_the_digit_limit(tmp_path, capsys):
    # 40-digit coefficients give a k552 of about 4967 digits
    rng = random.Random(3)
    big = SurfaceParams([rng.randint(-10**40, 10**40) for _ in range(9)],
                        [rng.randint(-10**40, 10**40) for _ in range(13)])
    inp = write_surface(tmp_path, big)
    expected = k552(big).value
    assert len(str(Decimal(expected))) > 4300
    assert run(["invariant", "k552", "--input", inp]) == 0
    assert int(Decimal(json.loads(capsys.readouterr().out)["value"])) == expected
    assert run(["invariant", "delta264", "--input", inp]) == 0
    d = int(Decimal(json.loads(capsys.readouterr().out)["value"]))
    assert d * r96(big).value ** 3 == expected


def test_invariant_degenerate_exit_1(tmp_path, capsys):
    # r96 = 0 here, so delta264 reports an error
    u = SurfaceParams([1] + [0] * 8, [1, 0] + [0] * 11)
    inp = write_surface(tmp_path, u)
    assert run(["invariant", "delta264", "--input", inp]) == 1
    assert "error" in json.loads(capsys.readouterr().out)


def test_verify_small_run(tmp_path):
    out = str(tmp_path / "verify.json")
    code = run(["verify", "--seed", "7", "--trials", "3", "--output", out])
    assert code == 0
    rep = json.loads((tmp_path / "verify.json").read_text())
    assert rep["seed"] == 7 and rep["trials"] == 3 and rep["failures"] == []


@pytest.mark.parametrize("argv, target", [
    (["verify", "--trials", "1"], "ellk3.invariants.verify_bulk"),
    (["hilbert", "--max-degree", "8", "--oracle"], "ellk3.hilbert.invariant_dimension_oracle"),
], ids=["verify", "hilbert"])
def test_unusable_output_refused_before_the_work(tmp_path, capsys, monkeypatch, argv, target):
    def refuse(*args, **kwargs):
        raise AssertionError("the computation ran")

    monkeypatch.setattr(target, refuse)
    for out in (str(tmp_path / "missing" / "out.json"), str(tmp_path)):
        assert run(argv + ["--output", out]) == 2
        assert capsys.readouterr().err.startswith("error: cannot write %s: " % out)
    assert not (tmp_path / "missing").exists()


def test_verify_rejects_bad_options(capsys):
    assert run(["verify", "--trials", "0"]) == 2
    assert run(["verify", "--trials", "1", "--modulus", "91"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("modulus", ["2", "3", "137"])
def test_verify_refuses_modulus_at_most_138(modulus, capsys):
    assert run(["verify", "--trials", "1", "--modulus", modulus]) == 2
    assert "error: --modulus must be prime and exceed 138" in capsys.readouterr().err


def test_verify_refuses_moduli_is_prime_cannot_decide(capsys):
    # a strong pseudoprime to the bases 2..37, and the bound of exact primality
    assert run(["verify", "--trials", "2", "--modulus", "318665857834031151167461"]) == 2
    assert "error: --modulus must be prime and exceed 138" in capsys.readouterr().err
    assert run(["verify", "--trials", "2", "--modulus", "3317044064679887385961981"]) == 2
    assert "error: --modulus must lie below 3317044064679887385961981" in capsys.readouterr().err


def test_verify_accepts_modulus_139(tmp_path):
    out = tmp_path / "verify.json"
    assert run(["verify", "--trials", "1", "--modulus", "139", "--output", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["modulus"] == 139 and rep["failures"] == []


def test_hilbert_json_and_oracle(tmp_path, capsys):
    assert run(["hilbert", "--max-degree", "12", "--oracle"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows[8] == {"degree": 8, "dim": 1, "oracle_dim": 1}
    assert rows[12]["dim"] == 2


def test_hilbert_oracle_disagreement_exit_1(capsys, monkeypatch):
    # an oracle one too high at degree 8 is reported and fails the command
    import ellk3.hilbert

    oracle = ellk3.hilbert.invariant_dimension_oracle
    monkeypatch.setattr(ellk3.hilbert, "invariant_dimension_oracle", lambda d: oracle(d) + (d == 8))
    assert run(["hilbert", "--max-degree", "8", "--oracle"]) == 1
    rows = json.loads(capsys.readouterr().out)
    assert [r["degree"] for r in rows if r["dim"] != r["oracle_dim"]] == [8]


def test_hilbert_csv_output(tmp_path):
    out = str(tmp_path / "h.csv")
    assert run(["hilbert", "--max-degree", "8", "--output", out]) == 0
    lines = (tmp_path / "h.csv").read_text().strip().splitlines()
    assert lines[0] == "degree,dim"
    assert lines[1] == "0,1" and lines[-1] == "8,1"


def test_hilbert_with_characters(tmp_path, capsys):
    # the character extension adds s_132: one more dimension from degree 132 on
    assert run(["hilbert", "--max-degree", "132", "--with-characters"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert all(r["dim_with_characters"] == r["dim"] for r in rows[:132])
    assert rows[132] == {"degree": 132, "dim": 76097885, "dim_with_characters": 76097886}
    out = tmp_path / "h.csv"
    assert run(["hilbert", "--max-degree", "132", "--with-characters", "--output", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "degree,dim,dim_with_characters"
    assert lines[-1] == "132,76097885,76097886"


def test_hilbert_oracle_feasibility_exit_2(capsys):
    assert run(["hilbert", "--max-degree", "32", "--oracle"]) == 2
    capsys.readouterr()


def test_qseries_terms(capsys):
    assert run(["qseries", "--terms", "4"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["leading_exponent"] == -1
    assert data["coefficients"] == ["1", "264", "8244", "139520"]


def test_unknown_subcommand_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_classify_zero_denominator_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"g2": ["1/0"] + ["1"] * 8, "g3": ["1"] * 13}))
    assert run(["classify", "--input", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_hilbert_negative_max_degree_exit_2(capsys):
    assert run(["hilbert", "--max-degree", "-1"]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("terms", ["0", "-3"])
def test_qseries_nonpositive_terms_exit_2(terms, capsys):
    assert run(["qseries", "--terms", terms]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.out == ""


@pytest.mark.parametrize(
    "bad",
    [
        {"g2": "123456789", "g3": "1234567890123"},  # strings of the right lengths
        {"g2": ["1_0"] + ["1"] * 8, "g3": ["1"] * 13},  # a Python literal, not a decimal
    ],
)
def test_classify_malformed_coefficients_exit_2(tmp_path, capsys, bad):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert run(["classify", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.out == ""


def test_classify_accepts_json_integers(tmp_path, capsys):
    path = tmp_path / "ints.json"
    path.write_text(json.dumps({"g2": [3, -1, 4, 1, -5, 9, 2, -6, 5],
                                "g3": [3, 5, -8, 9, 7, -9, 3, 2, -3, 8, 4, -6, 2]}))
    assert run(["classify", "--input", str(path)]) == 0
    inp = write_surface(tmp_path, GENERIC)
    first = capsys.readouterr().out
    assert run(["classify", "--input", inp]) == 0
    assert capsys.readouterr().out == first


def _fresh_python(code):
    """stdout of code run in a new interpreter that imports ellk3 from this tree."""
    import ellk3

    src = os.path.dirname(os.path.dirname(os.path.abspath(ellk3.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip()


LOADED = "print(sorted(m for m in ('sympy', 'numpy') if m in sys.modules))"


def test_cli_import_and_oracle_load_neither_sympy_nor_numpy():
    # sympy is imported lazily by the factorization; numpy is not a dependency
    code = "import sys, ellk3.cli, ellk3; ellk3.invariant_dimension_oracle(8); " + LOADED
    assert _fresh_python(code) == "[]"


def test_generic_fiber_profile_leaves_sympy_unloaded():
    # the mod-p certificate proves the generic h irreducible on its own
    code = (
        "import sys, ellk3; u = ellk3.SurfaceParams(%r, %r); "
        "assert ellk3.fiber_profile(u).places[0].residue_degree == 24; " % (
            list(GENERIC.g2_coeffs), list(GENERIC.g3_coeffs)) + LOADED
    )
    assert _fresh_python(code) == "[]"


# the type-II fixture's report, as the sympy-only factorization gave it
II_REPORT = {
    "euler_sum": 24, "h_is_zero": False, "in_U": False,
    "places": [
        {"d": 21, "kodaira": "NON-MINIMAL", "m2": 7, "m3": 11, "place": "1 * w", "residue_degree": 1},
        {"d": 2, "kodaira": "II", "m2": 1, "m3": 1, "place": "1 * x", "residue_degree": 1},
        {"d": 1, "kodaira": "I1", "m2": 0, "m3": 0, "place": "1 * x + 27/4 * w", "residue_degree": 1},
    ],
}


def test_type_ii_fiber_profile_keeps_its_report_without_sympy():
    # h(x, 1) = x^2 (4 x + 27): x^2 splits off, and the certificate proves 4 x + 27
    from test_weierstrass import II_SURFACE

    code = (
        "import sys, json, ellk3; u = ellk3.SurfaceParams(%r, %r); "
        "print(json.dumps(ellk3.fiber_profile(u).to_json_dict())); " % (
            list(II_SURFACE.g2_coeffs), list(II_SURFACE.g3_coeffs)) + LOADED
    )
    report, loaded = _fresh_python(code).splitlines()
    assert json.loads(report) == II_REPORT
    assert loaded == "[]"


def _degenerate_surfaces():
    """A type II, an I2 and a non-minimal surface, and one whose h has the
    factor x^4 + w^4, irreducible over Q though it splits mod every
    prime."""
    from test_weierstrass import A1_SURFACE

    x, f = BinaryForm(1, [1, 0]), BinaryForm(4, [1, 2, 0, -1, 1])
    r = BinaryForm(4, [1, 0, 0, 0, 1]) * BinaryForm(8, [1, 0, 3, 0, -2, 1, 0, 0, 5])
    forms = {
        "type_ii": (x * BinaryForm(7, [1, 0, 2, 0, -1, 0, 0, 3]), x * BinaryForm(11, [1, -1, 0, 0, 2, 0, 0, 0, 1, 0, 0, 1])),
        "non_minimal": (x ** 4 * BinaryForm(4, [1, -1, 0, 3, 1]), x ** 6 * BinaryForm(6, [1, 0, 2, 0, 0, -1, 1])),
        "x4_plus_w4": (-3 * f ** 2, 2 * f ** 3 + r),
    }
    surfaces = {k: SurfaceParams(g2.coeffs, g3.coeffs) for k, (g2, g3) in forms.items()}
    surfaces["i2"] = A1_SURFACE
    return surfaces


def test_degenerate_fiber_profiles_run_with_sympy_unimportable(tmp_path):
    """With sympy unimportable, classify exits 1 on the type-II fixture with
    II_REPORT, whose h is x^2 times a factor the certificate proves
    irreducible, and 0 on the I2 fixture, whose h past x^2 the certificate
    gives up on, loading ellk3._factor, with the report fiber_profile gives
    here; then fiber_profile gives every degenerate surface's report."""
    from ellk3.weierstrass import fiber_profile
    from test_weierstrass import II_SURFACE

    surfaces = _degenerate_surfaces()
    inputs = [write_surface(tmp_path, II_SURFACE, "ii.json"), write_surface(tmp_path, surfaces["i2"], "i2.json")]
    built = ", ".join("%r: SurfaceParams(%r, %r)" % (k, list(u.g2_coeffs), list(u.g3_coeffs)) for k, u in surfaces.items())
    code = ("import contextlib, io, json, sys\n"
            "sys.modules['sympy'] = None\n"
            "from ellk3 import SurfaceParams, fiber_profile\n"
            "from ellk3.cli import main\n"
            "runs = []\n"
            "for path in %r:\n"
            "    with contextlib.redirect_stdout(io.StringIO()) as out:\n"
            "        code = main(['classify', '--input', path])\n"
            "    runs.append([code, json.loads(out.getvalue()), 'ellk3._factor' in sys.modules])\n"
            "print(json.dumps(runs))\n"
            "print(json.dumps({k: fiber_profile(u).to_json_dict() for k, u in {%s}.items()}))" % (inputs, built))
    runs, reports = _fresh_python(code).splitlines()
    # exit code, report, and whether ellk3._factor is loaded, after each classify
    assert json.loads(runs) == [[1, II_REPORT, False], [0, fiber_profile(surfaces["i2"]).to_json_dict(), True]]
    reports = json.loads(reports)
    assert reports == {k: fiber_profile(u).to_json_dict() for k, u in surfaces.items()}
    kinds = {k: {(p["kodaira"], p["residue_degree"]) for p in r["places"]} for k, r in reports.items()}
    assert ("II", 1) in kinds["type_ii"] and ("I2", 1) in kinds["i2"]
    assert ("NON-MINIMAL", 1) in kinds["non_minimal"] and ("I1", 4) in kinds["x4_plus_w4"]
    assert any(p["place"] == "1 * x^4 + 1 * w^4" for p in reports["x4_plus_w4"]["places"])


def test_setup_and_generic_classify_do_not_load_the_factoring_module(tmp_path):
    # the benchmark's set-up steps, then a generic classify: the certificate
    # proves x^2 - 2 and the generic h irreducible, so ellk3._factor is
    # neither imported nor compiled
    from test_weierstrass import A1_SURFACE

    code = (
        "import sys, importlib; from ellk3.cli import main; "
        "mods = [importlib.import_module('ellk3.' + m) for m in ('scalars', 'multipoly', 'binforms', "
        "'elimination', 'weierstrass', 'invariants', 'hilbert', 'qseries')]; "
        "mods[6].raising_table(); mods[3].gcd_and_squarefree(mods[2].BinaryForm(2, [1, 0, -2])); "
        "mods[6].invariant_dimension_oracle(8); seen = [main(['classify', '--input', %r])]; "
        "seen.append('ellk3._factor' in sys.modules); seen.append(main(['classify', '--input', %r])); "
        "print(seen + ['ellk3._factor' in sys.modules])" % (
            write_surface(tmp_path, GENERIC), write_surface(tmp_path, A1_SURFACE, "i2.json")))
    # exit codes and whether the module is loaded, after each classify
    assert _fresh_python(code).splitlines()[-1] == "[0, False, 0, True]"


# runs a command through cli.main in a new interpreter
LOADS = (
    "import json, sys; from ellk3.cli import main; code = main(%r); "
    "print(json.dumps([code, [m for m in sys.modules if m.split('.')[0] == 'ellk3']]))"
)


def _loads(argv):
    """The command's exit code and the ellk3 modules it loaded."""
    code, modules = json.loads(_fresh_python(LOADS % argv).splitlines()[-1])
    return code, set(modules)


def test_import_ellk3_loads_no_submodule():
    code = "import sys, ellk3; print(sorted(m for m in sys.modules if m.startswith('ellk3')))"
    assert _fresh_python(code) == "['ellk3']"


def test_qseries_loads_no_elimination_hilbert_invariants_or_weierstrass():
    code, modules = _loads(["qseries", "--terms", "4"])
    assert code == 0
    assert not modules & {"ellk3.elimination", "ellk3.hilbert", "ellk3.invariants", "ellk3.weierstrass"}


def test_hilbert_oracle_loads_only_hilbert():
    code, modules = _loads(["hilbert", "--max-degree", "16", "--oracle"])
    assert (code, modules) == (0, {"ellk3", "ellk3.cli", "ellk3.hilbert"})


def test_hilbert_oracle_loads_no_dataclasses():
    code = LOADS % ["hilbert", "--max-degree", "16", "--oracle"] + "; print('dataclasses' in sys.modules)"
    assert _fresh_python(code).splitlines()[-1] == "False"


@pytest.mark.parametrize("argv", [["invariant", "r96"], ["classify"]])
def test_invariant_and_classify_load_no_dataclasses(tmp_path, argv):
    # the records of weierstrass and invariants are __slots__ classes
    code = LOADS % (argv + ["--input", write_surface(tmp_path, GENERIC)]) + "; print('dataclasses' in sys.modules)"
    assert _fresh_python(code).splitlines()[-1] == "False"


@pytest.mark.parametrize("argv", [["hilbert", "--max-degree", "-1"], ["verify", "--trials", "0"]])
def test_usage_error_loads_no_library_module(argv):
    assert _loads(argv) == (2, {"ellk3", "ellk3.cli"})
