import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from ellk3 import invariants
from ellk3.binforms import BinaryForm
from ellk3.invariants import (
    DEFAULTS,
    K552_U_DEGREE,
    R96_U_DEGREE,
    RES_HJ_LINE_DEGREE,
    InvariantValue,
    R96VanishesOnLine,
    SliceWitness,
    VerifyDefaults,
    delta264,
    gm_act,
    grading_constants,
    k552,
    r96,
    random_sl2,
    random_surface,
    sl2_act,
    slice_divisibility,
    verify_bulk,
    _interp,
    line_restriction,
)
from ellk3.elimination import CONVENTION_TAG, discriminant_binary, poly_trim, resultant_ints
from ellk3.hilbert import HilbertSeries
from ellk3.multipoly import MultiPoly
from ellk3.qseries import QSeries
from ellk3.scalars import ModP, reduce_scalar_mod
from ellk3.weierstrass import FiberReport, PlaceRecord, SurfaceParams, assemble
from reference import _eval_on_line, newton_interp, poly_mul, residues, slice_reference

# smallest interesting surface: g2 = x^8 + w^8, g3 = x^12 + w^12
BASE = SurfaceParams([1] + [0] * 7 + [1], [1] + [0] * 11 + [1])


def test_invariant_value_unknown_name_refused():
    v = r96(BASE)
    assert v.name == "r96" and v.declared_weight == 96
    assert v.convention_tag == CONVENTION_TAG
    assert InvariantValue("delta264", 1).declared_weight == 264
    with pytest.raises(ValueError, match="unknown invariant"):
        InvariantValue("r95", 1)


def test_records_compare_print_and_hash_like_dataclasses():
    """The __slots__ records keep the dataclasses' ==, repr and hash, and
    every record, the forms and series included, is read-only."""
    u = SurfaceParams(range(9), range(13))
    assert u == SurfaceParams(tuple(range(9)), tuple(range(13))) and u != (u.g2_coeffs, u.g3_coeffs)
    assert hash(u) == hash((u.g2_coeffs, u.g3_coeffs))
    assert repr(u) == "SurfaceParams(g2_coeffs=%r, g3_coeffs=%r)" % (tuple(range(9)), tuple(range(13)))
    v = InvariantValue("r96", 5)
    assert (repr(v), hash(v)) == ("InvariantValue(name='r96', value=5)", hash(("r96", 5)))
    d = VerifyDefaults(**{"slice_lines": 0})
    assert d == VerifyDefaults(200, 50, 50, 0) and hash(d) == hash((200, 50, 50, 0))
    assert repr(d) == "VerifyDefaults(pointwise_trials=200, homogeneity_trials=50, sl2_trials=50, slice_lines=0)"
    assert d.homogeneity_prime == VerifyDefaults.homogeneity_prime == 2**62 + 135
    for record, name in ((u, "g2_coeffs"), (v, "value"), (d, "sl2_trials")):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    w = SliceWitness(True, 139, [1], [2], [3])
    assert w != SliceWitness(True, 139, [1], [2], [4])
    conic = PlaceRecord(BinaryForm(2, [1, 0, 1]), 0, 0, 1, "I1")
    conic_repr = "PlaceRecord(place=BinaryForm(2, 1 * x^2 + 1 * w^2), m2=0, m3=0, d=1, kodaira='I1')"
    # (record, an equal record built apart, a field, the repr)
    unhashable = (
        (conic, PlaceRecord(BinaryForm(2, [1, 0, 1]), 0, 0, 1, "I1"), "kodaira", conic_repr),
        (FiberReport([conic]), FiberReport([conic]), "places", "FiberReport(places=[%s])" % conic_repr),
        (w, SliceWitness(True, 139, [1], [2], [3]), "quotient", "SliceWitness(success=True, modulus=139)"),
        (QSeries(-1, [1, 264], 0), QSeries(-2, [0, 1, 264], 0), "coeffs", "QSeries(1*q^-1 + 264 + O(q^1))"),
        (conic.place, BinaryForm(2, (1, 0, 1)), "coeffs", "BinaryForm(2, 1 * x^2 + 1 * w^2)"),
        (HilbertSeries([1, 0, 1]), HilbertSeries([1, 0, 1]), "coefficients", "HilbertSeries(coefficients=[1, 0, 1])"),
        (MultiPoly("xy", {(1, 0): 2, (0, 1): 0}), MultiPoly(("x", "y"), {(1, 0): 2}), "terms",
         "MultiPoly(('x', 'y'), [((1, 0), 2)])"),
    )
    for record, twin, name, rep in unhashable:
        fields = tuple(getattr(record, slot) for slot in record.__slots__)
        assert record == twin and record != fields and record != list(fields)
        assert repr(record) == rep
        with pytest.raises(TypeError):
            hash(record)
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)


def test_r96_zero_iff_common_root():
    # shared root at x = 0
    u = SurfaceParams([1] + [0] * 8, [1, 0] + [0] * 11)
    assert r96(u).value == 0
    assert r96(BASE).value != 0


def test_k552_zero_iff_repeated_h_root():
    rng = random.Random(0)
    u = random_surface(rng)
    assert k552(u).value != 0  # generic: 24 distinct roots
    # g2 = x w^7, g3 = x w^11: h = x^2 w^21 (4 x + 27 w) has repeated roots
    uII = SurfaceParams([0] * 7 + [1, 0], [0] * 11 + [1, 0])
    assert k552(uII).value == 0


def test_k552_errors_on_identically_zero_h():
    u = SurfaceParams([0] * 8 + [-3], [0] * 12 + [2])
    with pytest.raises(ValueError):
        k552(u)


P62 = DEFAULTS.homogeneity_prime
IDENTITY_DOMAINS = ("Z", "Q", "139", "P62")


def in_domain(u, domain, rng):
    """u over Z, over Q with a random denominator in 1..7 on every
    coefficient, or reduced mod 139 or mod 2^62 + 135."""
    if domain == "Q":
        return SurfaceParams([Fraction(c, rng.randint(1, 7)) for c in u.g2_coeffs],
                             [Fraction(c, rng.randint(1, 7)) for c in u.g3_coeffs])
    return u if domain == "Z" else u.reduce_mod({"139": 139, "P62": P62}[domain])


def stratum(rng, kind):
    """A seeded surface of one stratum: coefficient i of a form is that of
    x^(n-i) w^i, so coefficient 0 vanishes where w divides the form and
    coefficient n where x does."""
    bound = 10**6 if kind == "large" else 9
    g2 = [rng.randint(-bound, bound) for _ in range(9)]
    g3 = [rng.randint(-bound, bound) for _ in range(13)]
    if kind == "g2-zero":
        g2 = [0] * 9
    elif kind == "g3-zero":
        g3 = [0] * 13
    elif kind == "shared-root":  # x divides both: r96 = 0
        g2[8] = g3[12] = 0
    elif kind == "w-divides-both":  # the dense degrees of g2, g3 and h drop
        g2[0] = g3[0] = 0
    elif kind == "w-divides-h":  # h's degree drops while r96 != 0
        t = rng.choice([-2, -1, 1, 2])
        g2[0], g3[0] = -3 * t * t, 2 * t ** 3
    return SurfaceParams(g2, g3)


STRATA = ("small", "large", "g2-zero", "g3-zero", "shared-root", "w-divides-both", "w-divides-h")


@pytest.mark.parametrize("domain", IDENTITY_DOMAINS)
@pytest.mark.parametrize("kind", STRATA)
def test_k552_equals_its_definition(kind, domain):
    """k552 = 2^42 3^70 r96 Res(h, J) equals the definition disc(h) =
    Res(dh/dx, dh/dw), value and type, on every stratum where a factor
    vanishes or a degree drops: J = 0 (g2 = 0 or g3 = 0), r96 = 0 (a
    shared root), and w dividing both forms or h alone."""
    rng = random.Random("%s/%s" % (kind, domain))
    for _ in range(3):
        u = in_domain(stratum(rng, kind), domain, rng)
        h = assemble(u)[2]
        if h.is_zero():  # g2 = g3 = 0 mod p, say: k552 is undefined
            with pytest.raises(ValueError):
                k552(u)
            continue
        got, want = k552(u).value, discriminant_binary(h)
        assert got == want and type(got) is type(want)
        if kind in ("g2-zero", "g3-zero", "shared-root", "w-divides-both"):
            assert r96(u).value == 0 == got


@pytest.mark.parametrize("domain", ["Q", "139", "P62"])
def test_k552_raises_on_zero_h_in_every_domain(domain):
    """h = 4 g2^3 + 27 g3^2 = 0 for g2 = -3 f^2, g3 = 2 f^3 with f a
    quartic: k552 raises over Q and mod p too, though r96 = 0 there and
    Res(0, J) = 0 would give the zero."""
    rng = random.Random(domain)
    f = [Fraction(rng.randint(-3, 3), rng.randint(1, 7)) for _ in range(5)]
    f2 = poly_mul(f, f)
    u = SurfaceParams([-3 * c for c in f2], [2 * c for c in poly_mul(f2, f)])
    if domain != "Q":
        u = u.reduce_mod({"139": 139, "P62": P62}[domain])
    assert any(f) and assemble(u)[2].is_zero() and not r96(u).value
    with pytest.raises(ValueError, match="vanishes identically"):
        k552(u)


def test_delta264_exact_integrality():
    rng = random.Random(1)
    for _ in range(10):
        u = random_surface(rng)
        r, k, d = r96(u).value, k552(u).value, delta264(u).value
        assert k == d * r**3
        assert isinstance(d, int)


def test_delta264_rational_inputs():
    u = SurfaceParams(
        [Fraction(1, 2)] + [0] * 7 + [1], [1] + [0] * 11 + [Fraction(1, 3)]
    )
    r, k, d = r96(u).value, k552(u).value, delta264(u).value
    assert k == d * r**3


def test_delta264_division_by_zero():
    u = SurfaceParams([1] + [0] * 8, [1, 0] + [0] * 11)  # r96 = 0
    with pytest.raises(ZeroDivisionError):
        delta264(u)


def counted_eliminations(monkeypatch):
    """Live counts of the resultant engine's entries (``resultant_ints``)
    and the discriminant calls made through the invariants module."""
    calls = {"res": 0, "disc": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(invariants, "resultant_ints", counted("res", resultant_ints))
    monkeypatch.setattr(invariants, "discriminant_binary", counted("disc", discriminant_binary))
    return calls


def test_a_surface_report_computes_r96_and_k552_once(monkeypatch):
    """r96 is one resultant, and k552 one more, Res(h, J), on top of the
    r96 it finds remembered; delta264 then computes nothing."""
    calls = counted_eliminations(monkeypatch)
    u = random_surface(random.Random(21))
    r, k, d = r96(u).value, k552(u).value, delta264(u).value
    assert calls == {"res": 2, "disc": 0} and k == d * r**3


def test_an_equal_surface_built_apart_is_computed_again(monkeypatch):
    calls = counted_eliminations(monkeypatch)
    u = random_surface(random.Random(22))
    twin = SurfaceParams(u.g2_coeffs, u.g3_coeffs)
    assert twin == u and twin is not u
    assert k552(u) == k552(twin) and r96(u) == r96(twin)
    # k552(u) and k552(twin) each compute the r96 of their own surface and
    # Res(h, J); r96 remembers one surface, so r96(u) and r96(twin) after
    # them are computed again
    assert calls == {"res": 6, "disc": 0}


def test_equal_surfaces_over_z_q_and_fp_keep_their_domains():
    """The same coefficients as ints, Fractions and residues mod 139 give
    surfaces equal to over_z (1 == Fraction(1) and 1 == ModP(1, 139)),
    whose invariants are an int, a Fraction and a residue: asked back to
    back, none may be handed another's value."""
    g2, g3 = [1, 2, 0, 5, 0, 0, 1, 0, 3], [2, 0, 1, 0, 0, 4, 0, 0, 1, 0, 0, 2, 1]
    over_z = SurfaceParams(g2, g3)
    over_q = SurfaceParams([Fraction(c) for c in g2], [Fraction(c) for c in g3])
    over_p = over_z.reduce_mod(139)
    assert over_q == over_z == over_p
    for invariant in (r96, k552, delta264, k552, r96):
        values = [invariant(u).value for u in (over_z, over_q, over_p)]
        assert [type(v) for v in values] == [int, Fraction, ModP]
        assert values[0] == values[1] and reduce_scalar_mod(values[0], 139) == values[2]


def residue_cases(p):
    """Integer surfaces whose reductions mod p exercise the residue path:
    a random one; coefficients at and past p/2, where the balanced
    representatives change sign; w | g2 mod p only (a degree drop at
    infinity) and w | J over Z (J's x^18-coefficient 8 a0 b1 - 12 a1 b0 is
    0); and h = 4 g2^3 + 27 g3^2 = 0 mod p only."""
    rng = random.Random(31)
    edge = (0, 1, p // 2, p // 2 + 1, p // 2 + 2, p - 1, -(p // 2), -(p // 2) - 1)
    return {
        "random": random_surface(rng),
        "balanced-edge": SurfaceParams([rng.choice(edge) for _ in range(9)], [rng.choice(edge) for _ in range(13)]),
        "w-divides-g2": SurfaceParams([p] + [rng.randint(-9, 9) for _ in range(8)],
                                      [rng.randint(1, 9)] + [rng.randint(-9, 9) for _ in range(12)]),
        "w-divides-J": SurfaceParams([3, 4] + [rng.randint(-9, 9) for _ in range(7)],
                                     [1, 2] + [rng.randint(-9, 9) for _ in range(11)]),
        "h-zero-mod-p": SurfaceParams([p] + [0] * 7 + [-3], [0] * 12 + [2]),
    }


@pytest.mark.parametrize("p", [139, P62])
@pytest.mark.parametrize("case", ["random", "balanced-edge", "w-divides-g2", "w-divides-J", "h-zero-mod-p"])
def test_residue_invariants_are_the_reductions_of_the_integer_ones(p, case):
    """r96, k552 and Delta264 of u mod p, computed on plain residues, are
    residues and equal the reductions of the integer values; where h = 0
    mod p only, k552 mod p keeps its ValueError and Delta264 mod p its
    ZeroDivisionError, while over Z both have values."""
    u = residue_cases(p)[case]
    up = u.reduce_mod(p)
    h_zero = assemble(up)[2].is_zero()
    assert h_zero == (case == "h-zero-mod-p") and not assemble(u)[2].is_zero()
    if case == "w-divides-J":
        assert invariants._jacobian(u.g2_coeffs, u.g3_coeffs)[0] == 0
    r, rp = r96(u).value, r96(up).value
    assert type(rp) is ModP and rp == reduce_scalar_mod(r, p)
    k, d = k552(u).value, delta264(u).value
    if h_zero:
        with pytest.raises(ValueError, match="h vanishes identically"):
            k552(up)
        with pytest.raises(ZeroDivisionError):
            delta264(up)
        return
    kp, dp = k552(up).value, delta264(up).value
    assert (type(kp), type(dp)) == (ModP, ModP)
    assert (kp, dp) == (reduce_scalar_mod(k, p), reduce_scalar_mod(d, p))


@pytest.mark.parametrize("p", [139, P62])
@pytest.mark.parametrize("case", ["random", "balanced-edge", "w-divides-g2"])
def test_residue_slice_is_the_reduction_of_the_rational_one(p, case):
    """The slice witness mod p, on plain residues from end to end, is the
    reduction of the witness over Q: R, K and the quotient.  On the
    w-divides-g2 line, w | g2(s) mod p at every point s."""
    u0, u1 = residue_cases(p)[case], random_surface(random.Random(32))
    if case == "w-divides-g2":
        u1 = SurfaceParams([p] + list(u1.g2_coeffs[1:]), u1.g3_coeffs)
    wq, wp = slice_divisibility(u0, u1), slice_divisibility(u0, u1, modulus=p)
    assert wq.success and wp.success
    for got, want in ((wp.R, wq.R), (wp.K, wq.K), (wp.quotient, wq.quotient)):
        assert all(type(c) is int and 0 <= c < p for c in got)
        assert got == poly_trim([reduce_scalar_mod(c, p) for c in want])


def test_degenerate_surfaces_raise_on_every_call():
    h_zero = SurfaceParams([0] * 8 + [-3], [0] * 12 + [2])  # h = 0, r96 = 0
    for _ in range(2):
        assert r96(h_zero).value == 0
        with pytest.raises(ValueError, match="vanishes identically"):
            k552(h_zero)
        with pytest.raises(ZeroDivisionError):
            delta264(h_zero)


def test_weighted_homogeneity_exact():
    rng = random.Random(2)
    for _ in range(3):
        u = random_surface(rng, 4)
        lam = Fraction(rng.choice([2, 3, -2]), rng.choice([1, 3]))
        ul = gm_act(lam, u)
        assert r96(ul).value == lam**96 * r96(u).value
        assert k552(ul).value == lam**552 * k552(u).value
        assert delta264(ul).value == lam**264 * delta264(u).value


def test_sl2_invariance_exact():
    rng = random.Random(3)
    for _ in range(3):
        u = random_surface(rng, 4)
        g = random_sl2(rng)
        v = sl2_act(g, u)
        assert r96(v).value == r96(u).value
        assert k552(v).value == k552(u).value


def test_sl2_act_rejects_wrong_determinant():
    with pytest.raises(ValueError):
        sl2_act(((2, 0), (0, 1)), BASE)


def test_sl2_action_composition():
    rng = random.Random(4)
    from ellk3.invariants import _matmul

    u = random_surface(rng, 3)
    g1, g2m = random_sl2(rng), random_sl2(rng)
    assert sl2_act(g2m, sl2_act(g1, u)) == sl2_act(_matmul(g1, g2m), u)


def test_gm_act_rejects_zero():
    with pytest.raises(ValueError):
        gm_act(0, BASE)


def test_grading_constants():
    g = grading_constants()
    assert g["canonical_weight"] == -114
    assert g["relation_weight"] == 264
    assert g["borcherds_weight"] == 132
    assert g["modular_dim"] == 18
    assert g["ambient_variable_count"] == 22
    assert g["variable_weights"] == (4,) * 9 + (6,) * 13
    # internal consistency, not just frozen numbers
    assert g["canonical_weight"] == -sum(g["variable_weights"])
    assert g["modular_dim"] == g["canonical_weight"] + g["borcherds_weight"]
    assert g["relation_weight"] == 2 * g["borcherds_weight"]


def test_slice_divisibility_mod_p():
    rng = random.Random(5)
    u0, u1 = random_surface(rng), random_surface(rng)
    wit = slice_divisibility(u0, u1, modulus=DEFAULTS.homogeneity_prime)
    assert isinstance(wit, SliceWitness) and wit.success
    assert wit.r3_degree == 60
    assert wit.k_degree <= R96_U_DEGREE + RES_HJ_LINE_DEGREE
    assert wit.quotient_degree == wit.k_degree - 60


def test_slice_divisibility_two_primes_agree():
    """The quotient's degree structure is modulus-independent; two different
    primes near 2**62 must tell the same story."""
    rng = random.Random(6)
    u0, u1 = random_surface(rng), random_surface(rng)
    p1 = DEFAULTS.homogeneity_prime
    p2 = 4611686018427387847  # 2**62 - 57, the prime below 2**62
    w1 = slice_divisibility(u0, u1, modulus=p1)
    w2 = slice_divisibility(u0, u1, modulus=p2)
    assert w1.success and w2.success
    assert (w1.k_degree, w1.quotient_degree) == (w2.k_degree, w2.quotient_degree)


def test_slice_divisibility_rejects_composite_modulus():
    rng = random.Random(7)
    u0, u1 = random_surface(rng), random_surface(rng)
    with pytest.raises(ValueError):
        slice_divisibility(u0, u1, modulus=91)


def test_verify_bulk_deterministic_and_clean(monkeypatch):
    monkeypatch.setattr(invariants, "DEFAULTS", VerifyDefaults(
        pointwise_trials=5, homogeneity_trials=3, sl2_trials=3, slice_lines=0))
    rep1 = verify_bulk(seed=123)
    rep2 = verify_bulk(seed=123)
    assert rep1 == rep2
    assert rep1["failures"] == []
    assert rep1["seed"] == 123 and rep1["convention_tag"] == CONVENTION_TAG


def test_verify_bulk_catches_corrupted_invariant(monkeypatch):
    """A deliberately wrong k552 must be flagged by the bulk checks."""

    def bad_k552(u):
        good = k552(u)
        return InvariantValue("k552", good.value + 1)

    monkeypatch.setattr(invariants, "DEFAULTS", VerifyDefaults(
        pointwise_trials=10, homogeneity_trials=0, sl2_trials=0, slice_lines=0))
    monkeypatch.setattr(invariants, "k552", bad_k552)
    rep = verify_bulk(seed=9)
    assert rep["failures"] != []
    assert all(kind == "pointwise" for kind, _ in rep["failures"])


def test_verify_bulk_checks_k552_against_its_definition(monkeypatch):
    """A doubled k552 still divides by r96^3, so only the pointwise check
    against disc(h) flags it, once per draw; that check draws nothing from
    the rng, so the flagged surfaces are the draws of a clean run."""
    def doubled(u):
        good = k552(u)
        return InvariantValue("k552", 2 * good.value)

    monkeypatch.setattr(invariants, "DEFAULTS", VerifyDefaults(
        homogeneity_trials=0, sl2_trials=0, slice_lines=0))
    clean = verify_bulk(seed=4, trials=3)
    monkeypatch.setattr(invariants, "k552", doubled)
    failures = verify_bulk(seed=4, trials=3)["failures"]
    assert clean["failures"] == [] and [kind for kind, _ in failures] == ["k552-identity"] * 3
    rng = random.Random(4)
    draws = [u for u in (random_surface(rng) for _ in range(20)) if r96(u).value][:3]
    assert sorted(repr(u) for _, u in failures) == sorted(repr(u.to_json_dict()) for u in draws)


def test_verify_bulk_flags_both_actions_on_corrupted_residues(monkeypatch):
    """r96 and k552 shifted by the x^8-coefficient of g2, on residues only:
    the shift is neither Gm-homogeneous nor SL2-invariant, so the one check
    of both actions flags each invariant under each action, and the
    pointwise check over Z stays clean."""
    def shifted(invariant):
        def wrapper(u):
            v = invariant(u)
            a0 = u.g2_coeffs[0]
            return InvariantValue(v.name, v.value + a0) if isinstance(a0, ModP) else v
        return wrapper

    monkeypatch.setattr(invariants, "DEFAULTS", VerifyDefaults(
        homogeneity_trials=3, sl2_trials=3, slice_lines=0))
    monkeypatch.setattr(invariants, "r96", shifted(r96))
    monkeypatch.setattr(invariants, "k552", shifted(k552))
    kinds = {kind for kind, _ in verify_bulk(seed=0, trials=2)["failures"]}
    assert kinds == {"homogeneity-r96", "homogeneity-k552", "sl2-r96", "sl2-k552"}


# g2 = -3 w^8, g3 = 2 w^12: h = 4 g2^3 + 27 g3^2 is the zero form, mod every p
H_ZERO = SurfaceParams([0] * 8 + [-3], [0] * 12 + [2])


def test_verify_bulk_skips_k552_where_h_vanishes_mod_p(monkeypatch):
    """Where h = 0 mod p, k552 is undefined: the homogeneity and SL2 checks
    compare r96 only, and the trial is no failure."""
    monkeypatch.setattr(invariants, "DEFAULTS", VerifyDefaults(
        homogeneity_trials=2, sl2_trials=2, slice_lines=0))
    monkeypatch.setattr(invariants, "random_surface", lambda rng: H_ZERO)
    assert verify_bulk(seed=0, trials=0)["failures"] == []


def test_verify_bulk_draws_again_where_r96_vanishes(monkeypatch):
    """A pointwise draw with r96 = 0 has no delta264: it is drawn again,
    and is neither a trial nor a failure."""
    assert not r96(H_ZERO).value
    rng = random.Random(5)
    draws = [H_ZERO, random_surface(rng), H_ZERO, H_ZERO, random_surface(rng)]
    seen = []

    def next_draw(rng):
        seen.append(draws[len(seen)])
        return seen[-1]

    monkeypatch.setattr(invariants, "DEFAULTS", VerifyDefaults(homogeneity_trials=0, sl2_trials=0, slice_lines=0))
    monkeypatch.setattr(invariants, "random_surface", next_draw)
    assert verify_bulk(seed=0, trials=2)["failures"] == []
    assert seen == draws


@pytest.mark.parametrize("label", ["slice", "slice-degenerate"])
def test_verify_bulk_labels_slice_failures(monkeypatch, label):
    """A slice whose division fails is a "slice" failure, one that raises
    ValueError (an h that vanishes at a slice point) a "slice-degenerate"
    one, each with the line's two surfaces, the first two draws when no
    other check runs."""
    def failing(u0, u1, modulus):
        if label == "slice-degenerate":
            raise ValueError("degenerate family: h vanishes identically")
        return SliceWitness(False, modulus, [], [1], [1])

    monkeypatch.setattr(invariants, "DEFAULTS", VerifyDefaults(homogeneity_trials=0, sl2_trials=0, slice_lines=1))
    monkeypatch.setattr(invariants, "slice_divisibility", failing)
    rng = random.Random(3)
    u0, u1 = random_surface(rng), random_surface(rng)
    want = [[label, {"u0": u0.to_json_dict(), "u1": u1.to_json_dict()}]]
    assert verify_bulk(seed=3, trials=0)["failures"] == want


# both ends have u_(0,8) = u_(0,12) = 0, so g2 and g3 share the root x = 0
# all along the line and r96 vanishes identically on it: the first line
# verify_bulk(R96_LINE_SEED, trials=10) draws for its slice check
R96_LINE = (SurfaceParams([6, 8, 3, -9, 4, -2, 7, 3, 0], [9, 5, 8, 0, -6, -4, -2, 0, -9, -6, -3, -8, 0]),
            SurfaceParams([-8, -2, -8, 7, -2, 4, 9, -4, 0], [-7, -2, -2, -5, 7, -3, 1, -9, 7, -9, -8, 7, 0]))
R96_LINE_SEED = 1072172899


def test_slice_on_a_line_in_the_r96_locus_raises():
    for modulus in (None, 139, P62):
        with pytest.raises(R96VanishesOnLine, match="r96 vanishes identically on this line"):
            slice_divisibility(*R96_LINE, modulus=modulus)


def test_verify_bulk_draws_a_line_in_the_r96_locus_again(monkeypatch):
    """A slice line on which r96 vanishes identically is a property of the
    draw, not a failed check: verify_bulk draws the next line, and reports
    no failure."""
    lines = []

    def recording(u0, u1, modulus):
        lines.append((u0, u1))
        return slice_divisibility(u0, u1, modulus=modulus)

    monkeypatch.setattr(invariants, "slice_divisibility", recording)
    assert verify_bulk(R96_LINE_SEED, trials=10)["failures"] == []
    assert len(lines) == 2 and lines[0] == R96_LINE and lines[1] != R96_LINE


@pytest.mark.parametrize("check", ["homogeneity", "sl2"])
def test_verify_bulk_reraises_k552_errors_on_nonzero_h(monkeypatch, check):
    """A ValueError from k552 on a nonzero h mod p is a fault, not a skip: it
    leaves the homogeneity check and the SL2 check, each run alone."""
    def failing(u):
        if isinstance(u.g2_coeffs[0], ModP):
            raise ValueError("k552 failed on a nonzero h")
        return k552(u)

    monkeypatch.setattr(invariants, "DEFAULTS", VerifyDefaults(
        homogeneity_trials=int(check == "homogeneity"), sl2_trials=int(check == "sl2"), slice_lines=0))
    monkeypatch.setattr(invariants, "k552", failing)
    with pytest.raises(ValueError, match="nonzero h"):
        verify_bulk(seed=0, trials=1)


def test_verify_bulk_refuses_composite_modulus():
    # refused at entry, before any draw reaches the mod-p resultant engine
    with pytest.raises(ValueError, match="modulus must be prime"):
        verify_bulk(0, trials=1, modulus=15)


@pytest.mark.parametrize("modulus", [2, 3, 137])
def test_modulus_at_most_k552_degree_refused(modulus):
    # the slice points s = -51..51 are not distinct mod any prime below 103;
    # the threshold stays at the plain bound 138, so 103..137 are refused too
    rng = random.Random(8)
    u0, u1 = random_surface(rng), random_surface(rng)
    with pytest.raises(ValueError, match="exceed %d" % K552_U_DEGREE):
        slice_divisibility(u0, u1, modulus=modulus)
    with pytest.raises(ValueError, match="exceed %d" % K552_U_DEGREE):
        verify_bulk(0, trials=1, modulus=modulus)


def test_modulus_139_certifies_the_reduced_rational_quotient(monkeypatch):
    rng = random.Random(8)
    u0, u1 = random_surface(rng), random_surface(rng)
    wit = slice_divisibility(u0, u1, modulus=139)
    wq = slice_divisibility(u0, u1)
    assert wit.success and wq.success
    assert wit.quotient == poly_trim([reduce_scalar_mod(c, 139).v for c in wq.quotient])
    monkeypatch.setattr(invariants, "DEFAULTS", VerifyDefaults(
        pointwise_trials=2, homogeneity_trials=3, sl2_trials=3))
    assert verify_bulk(0, modulus=139)["failures"] == []


INTERP_VALUES = {
    "Z": (0, st.integers(-10**40, 10**40)),
    "Q": (0, st.fractions(-10**6, 10**6, max_denominator=100)),
    "P62": (DEFAULTS.homogeneity_prime, st.integers(0, DEFAULTS.homogeneity_prime - 1)),
    "139": (139, st.integers(-10**6, 10**6)),
}


@pytest.mark.parametrize("domain", sorted(INTERP_VALUES))
@settings(max_examples=15)
@given(data=st.data())
def test_interp_matches_divided_differences(domain, data):
    p, values = INTERP_VALUES[domain]
    n = data.draw(st.sampled_from([1, 2, K552_U_DEGREE + 1]) | st.integers(1, K552_U_DEGREE + 1))
    ys = data.draw(st.lists(values, min_size=n, max_size=n))
    # bit-identical: same values and same types (Fractions over Q, ints mod p)
    assert repr(_interp(ys, p)) == repr(newton_interp(list(range(-(n // 2), n - n // 2)), ys, p))


# -- the slice certificate against the plain-degree reference ----------


def surfaces(coeff, g2=True):
    return st.builds(SurfaceParams, st.lists(coeff if g2 else st.just(0), min_size=9, max_size=9),
                     st.lists(coeff, min_size=13, max_size=13))


small, large = st.integers(-9, 9), st.integers(-10**6, 10**6)
LINES = {
    "small": st.tuples(surfaces(small), surfaces(small)),
    "large": st.tuples(surfaces(large), surfaces(large)),
    "rational": st.tuples(surfaces(st.fractions(-9, 9, max_denominator=7)), surfaces(small)),
    # u1 with g2 = 0: g2 is constant along the line, and the degrees drop
    "g2-zero": st.tuples(surfaces(small), surfaces(small, g2=False)),
}


@pytest.mark.parametrize("modulus", [None, 139, P62])
@pytest.mark.parametrize("kind", sorted(LINES))
def test_slice_divisibility_matches_reference(kind, modulus):
    """The certificate from the proven line degrees (103 evaluations of
    Res(h, J) and 21 of r96) equals, field for field, the one from the
    plain degree bounds (139 evaluations of disc(h) and 61 of r96), whose
    k_degree never exceeds R96_U_DEGREE + RES_HJ_LINE_DEGREE."""

    # no shrink phase: shrinking a failing line takes minutes of slice work
    @settings(max_examples=1 if modulus is None else 2, phases=(Phase.explicit, Phase.reuse, Phase.generate))
    @given(LINES[kind])
    def check(line):
        try:
            want = slice_reference(*line, modulus=modulus)
        except ValueError:
            with pytest.raises(ValueError):
                slice_divisibility(*line, modulus=modulus)
            assume(False)
        got = slice_divisibility(*line, modulus=modulus)
        assert got == want and repr(got.quotient) == repr(want.quotient)
        assert want.success and want.k_degree <= R96_U_DEGREE + RES_HJ_LINE_DEGREE
        if kind == "g2-zero":
            assert want.r3_degree <= 3 * 8  # r96 has degree 8 in g3

    check()


RESTRICTION_LINES = {
    "int": surfaces(large),
    "rational": surfaces(st.fractions(-9, 9, max_denominator=7)),
    "139": surfaces(residues(139)),
    "P62": surfaces(residues(P62)),
}


def wrapped_line_restriction(u0, u1):
    """The forms g2, g3, h and J at u0 + s u1 as a function of s, built
    from ``line_restriction``'s int lists through its wrap; every list is
    checked to hold plain ints."""
    pair, h, jacobian, wrap = line_restriction(u0, u1)

    def forms(s):
        lists = pair(s) + (h(s), jacobian(s))
        assert all(type(c) is int for f in lists for c in f)
        return tuple(BinaryForm(len(f) - 1, wrap(f, w)) for f, w in zip(lists, (4, 6, 12, 10)))

    return forms


@pytest.mark.parametrize("kind", sorted(RESTRICTION_LINES))
@settings(max_examples=10)
@given(data=st.data())
def test_line_restriction_matches_assemble(kind, data):
    """g2(s), g3(s) and the cubic h(s) on a line are assemble's forms at
    u0 + s u1, and the quadratic J(s) is g2_x g3_w - g2_w g3_x of those
    forms, for s in [-61, 61]; on ints and residues the coefficients have
    the same types as well, and over Q every one is a Fraction."""
    u0, u1 = data.draw(RESTRICTION_LINES[kind]), data.draw(RESTRICTION_LINES[kind])
    forms = wrapped_line_restriction(u0, u1)
    for s in data.draw(st.lists(st.integers(-61, 61), min_size=1, max_size=4)):
        g2, g3, hs = assemble(SurfaceParams([a + s * b for a, b in zip(u0.g2_coeffs, u1.g2_coeffs)],
                                            [a + s * b for a, b in zip(u0.g3_coeffs, u1.g3_coeffs)]))
        (g2x, g2w), (g3x, g3w) = g2.partials(), g3.partials()
        want = (g2, g3, hs, g2x * g3w + (-1) * (g2w * g3x))
        got = forms(s)
        assert got == want
        if kind == "rational":
            assert all(type(c) is Fraction for f in got for c in f.coeffs)
        else:
            assert [type(c) for f in got for c in f.coeffs] == [type(c) for f in want for c in f.coeffs]


def test_rational_line_is_convolved_on_ints(monkeypatch):
    """A rational line whose denominators (up to 7) differ between g2 and
    g3 and between its two ends is convolved on ints alone: a guard in
    place of ``_convolve`` refuses every other entry, and the forms still
    match assemble's at u0 + s u1."""
    convolve = invariants._convolve

    def ints_only(u, v):
        assert all(type(c) is int for c in (*u, *v)), (u, v)
        return convolve(u, v)

    monkeypatch.setattr(invariants, "_convolve", ints_only)
    rng = random.Random(29)
    u0, u1 = (SurfaceParams([Fraction(rng.randint(-9, 9), rng.choice((1, d2))) for _ in range(9)],
                            [Fraction(rng.randint(-9, 9), rng.choice((1, d3))) for _ in range(13)])
              for d2, d3 in ((2, 3), (5, 7)))
    assert [lcm(*(c.denominator for c in f)) for u in (u0, u1)
            for f in (u.g2_coeffs, u.g3_coeffs)] == [2, 3, 5, 7]
    forms = wrapped_line_restriction(u0, u1)
    for s in (-3, 0, 2):
        g2, g3, hs = assemble(SurfaceParams([a + s * b for a, b in zip(u0.g2_coeffs, u1.g2_coeffs)],
                                            [a + s * b for a, b in zip(u0.g3_coeffs, u1.g3_coeffs)]))
        (g2x, g2w), (g3x, g3w) = g2.partials(), g3.partials()
        assert forms(s) == (g2, g3, hs, g2x * g3w + (-1) * (g2w * g3x))


def test_slice_through_the_h_zero_locus_raises():
    """u0 with g2 = -3 f^2 and g3 = 2 f^3 has h = 0, and s = 0 is a slice
    point: the slice raises ValueError there, as k552(u0) does, over Q and
    mod p."""
    rng = random.Random(15)
    f = [rng.randint(-3, 3) for _ in range(5)]
    f2 = poly_mul(f, f)
    u0 = SurfaceParams([-3 * c for c in f2], [2 * c for c in poly_mul(f2, f)])
    u1 = random_surface(rng)
    assert any(f) and assemble(u0)[2].is_zero()
    for modulus in (None, 139, P62):
        with pytest.raises(ValueError, match="h vanishes identically"):
            slice_divisibility(u0, u1, modulus=modulus)


def test_slice_divisibility_integer_line_with_content():
    """On a line with every coefficient of u0 and u1 even, R has content
    > 1 (r96 is homogeneous of degree 20), so the quotient over Q must be
    scaled by that content; the witness equals the reference's."""
    rng = random.Random(21)
    u0, u1 = (SurfaceParams([2 * c for c in u.g2_coeffs], [2 * c for c in u.g3_coeffs])
              for u in (random_surface(rng), random_surface(rng)))
    got, want = slice_divisibility(u0, u1), slice_reference(u0, u1)
    assert gcd(*(int(c) for c in got.R)) >= 2 ** 20
    assert got.success and got == want and repr(got.quotient) == repr(want.quotient)


def test_slice_failed_witness_carries_no_quotient(monkeypatch):
    """With T = Res(h, J) shifted by 1 at every point, R^2 (of degree > 0)
    cannot divide T, nor R^3 divide K = C R T: the witness fails and
    carries the empty quotient, over Q and mod p."""
    def shifted(a, b, p=0):
        value = resultant_ints(a, b, p)
        return value + 1 if len(a) == 25 else value

    monkeypatch.setattr(invariants, "resultant_ints", shifted)
    rng = random.Random(12)
    u0, u1 = random_surface(rng), random_surface(rng)
    for modulus in (None, P62):
        wit = slice_divisibility(u0, u1, modulus=modulus)
        assert (wit.success, wit.quotient, wit.quotient_degree) == (False, [], -1)


def test_slice_witness_degrees_derive_from_polynomials():
    """A witness stores (success, modulus, quotient, K, R); its degrees are
    read off the polynomials: an empty quotient or K has degree -1, and
    r3_degree is 3 deg R."""
    assert list(SliceWitness.__slots__) == ["success", "modulus", "quotient", "K", "R"]
    wit = SliceWitness(True, None, [], [], [1])
    assert (wit.quotient_degree, wit.k_degree, wit.r3_degree) == (-1, -1, 0)
    wit = SliceWitness(True, 139, [1, 2], [0, 0, 0, 0, 0, 0, 0, 0, 1], [3, 1, 1])
    assert (wit.quotient_degree, wit.k_degree, wit.r3_degree) == (1, 8, 6)
    with pytest.raises(AttributeError):
        wit.r3_degree = 6


def test_slice_line_evaluation_budget(monkeypatch):
    """One line costs RES_HJ_LINE_DEGREE + 1 = 103 resultants of (h, J) and
    R96_U_DEGREE + 1 = 21 of (g2, g3), and no discriminant, over Q and mod
    p; K = k552 on the line has degree up to 20 + 102 = 122."""
    calls = counted_eliminations(monkeypatch)
    rng = random.Random(12)
    u0, u1 = random_surface(rng), random_surface(rng)
    for modulus in (None, P62):
        calls.update(disc=0, res=0)
        assert slice_divisibility(u0, u1, modulus=modulus).success
        assert calls == {"disc": 0, "res": 103 + 21}
    assert (RES_HJ_LINE_DEGREE, R96_U_DEGREE) == (102, 20)


@pytest.mark.parametrize("modulus", [None, 139, P62])
def test_slice_witness_interpolants_factor_exactly(modulus):
    """K = R^3 q exactly, with the interpolants the witness carries."""
    rng = random.Random(13)
    u0, u1 = random_surface(rng), random_surface(rng)
    wit = slice_divisibility(u0, u1, modulus=modulus)
    assert len(wit.K) - 1 == wit.k_degree == R96_U_DEGREE + RES_HJ_LINE_DEGREE
    assert 3 * (len(wit.R) - 1) == wit.r3_degree == 3 * R96_U_DEGREE
    product = poly_mul(poly_mul(poly_mul(wit.R, wit.R), wit.R), wit.quotient)
    if modulus:
        product = [c % modulus for c in product]
    assert product == wit.K
    # the interpolants are those of k552, by its definition disc(h), and of
    # r96 at a point of the line
    s = 200
    u = _eval_on_line(u0, u1, s, modulus)
    for poly, value in ((wit.K, discriminant_binary(assemble(u)[2])), (wit.R, r96(u).value)):
        want = sum(c * s ** i for i, c in enumerate(poly))
        assert value == (ModP(want, modulus) if modulus else want)


def test_slice_inside_the_i2_locus_succeeds_with_the_empty_quotient():
    """On a line where g2 = -3 w^8 and g3 = 2 w^12 mod x^2, x^2 divides h
    (h = 4 g2^3 + 27 g3^2 vanishes at x = 0 to order 2), so K = k552 is
    zero on the whole line while R = r96 is not.  Zero is divisible by
    R^3: the witness succeeds with the empty quotient, over Q and mod p,
    and quotient_degree = k_degree - r3_degree does not hold."""
    rng = random.Random(14)
    r0, r1 = ([rng.randint(-9, 9) for _ in range(7)] for _ in range(2))
    q0, q1 = ([rng.randint(-9, 9) for _ in range(11)] for _ in range(2))
    u0 = SurfaceParams(r0 + [0, -3], q0 + [0, 2])
    u1 = SurfaceParams(r1 + [0, 0], q1 + [0, 0])
    for modulus in (None, P62):
        wit = slice_divisibility(u0, u1, modulus=modulus)
        assert wit.success and wit.quotient == [] and wit.K == []
        assert (wit.quotient_degree, wit.k_degree) == (-1, -1)
        assert wit.r3_degree == 3 * (len(wit.R) - 1) > 0
