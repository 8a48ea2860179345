import json
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ellk3 import invariants
from ellk3.binforms import BinaryForm
from ellk3.elimination import discriminant_binary
from ellk3.invariants import DEFAULTS, k552
from ellk3.scalars import DomainError, ModP, reduce_scalar_mod
from ellk3.weierstrass import (
    INFINITE_ORDER,
    FiberReport,
    PlaceRecord,
    SurfaceParams,
    assemble,
    degeneration_component,
    fiber_profile,
    kodaira_type,
)
from reference import schoolbook_h


def rand_surface(rng, bound=9):
    return SurfaceParams(
        [rng.randint(-bound, bound) for _ in range(9)],
        [rng.randint(-bound, bound) for _ in range(13)],
    )


# -- fixtures used throughout ----------------------------------------

# g2 = -3 f^2, g3 = 2 f^3 + x^2 r kills the I_1 at a root of f into an I_2
_F = BinaryForm(4, [1, 0, 0, 1, 2])
_R = BinaryForm(10, [1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 3])
_A1_G2 = -3 * (_F**2)
_A1_G3 = 2 * (_F**3) + BinaryForm(2, [1, 0, 0]) * _R
A1_SURFACE = SurfaceParams(_A1_G2.coeffs, _A1_G3.coeffs)

# g2 = x w^7, g3 = x w^11: type II fiber at x = 0
II_SURFACE = SurfaceParams([0] * 7 + [1, 0], [0] * 11 + [1, 0])

# g2 = x^2 (...), g3 = x^2 (...): shared double root, off both generic strata
DEEPER_SURFACE = SurfaceParams([1, 0, 0, 0, 0, 0, 0, 0, 0], [0, 0, 1] + [0] * 10)

# g2 = x^4 w^4, g3 = x^6 w^6: non-minimal at both 0 and infinity
NONMIN_SURFACE = SurfaceParams([0, 0, 0, 0, 1, 0, 0, 0, 0], [0] * 6 + [1] + [0] * 6)


def realizable(m2, m3, d):
    """Whether (ord g2, ord g3, ord h) can occur for h = 4 g2^3 + 27 g3^2."""
    t3 = INFINITE_ORDER if m2 >= INFINITE_ORDER else 3 * m2
    t2 = INFINITE_ORDER if m3 >= INFINITE_ORDER else 2 * m3
    if t3 >= INFINITE_ORDER and t2 >= INFINITE_ORDER:
        return False  # h would vanish identically
    if t3 != t2:
        return d == min(t3, t2)
    return d >= t3  # cancellation can raise the order arbitrarily


def test_kodaira_table_exhaustive():
    """Every realizable (ord g2, ord g3, ord h) triple gets a tag, and the
    tag is NON-MINIMAL exactly when (m2, m3) >= (4, 6)."""
    orders = list(range(0, 8)) + [INFINITE_ORDER]
    seen = set()
    for m2 in orders:
        for m3 in orders:
            for d in range(0, 17):
                if not realizable(m2, m3, d):
                    continue
                tag = kodaira_type(m2, m3, d)
                assert isinstance(tag, str) and tag
                assert (tag == "NON-MINIMAL") == (m2 >= 4 and m3 >= 6)
                seen.add(tag)
    # every family of the table shows up in the sweep
    for tag in ("I0", "I1", "II", "III", "IV", "I0*", "I1*", "IV*", "III*", "II*",
                "NON-MINIMAL"):
        assert tag in seen


def test_kodaira_inconsistent_triples_raise():
    for bad in [(1, 1, 3), (0, 1, 5), (2, 2, 7), (1, 3, 4), (3, 4, 11),
                (INFINITE_ORDER, 2, 5), (2, INFINITE_ORDER, 7)]:
        with pytest.raises(ValueError):
            kodaira_type(*bad)


def test_kodaira_table_rows():
    assert kodaira_type(0, 0, 0) == "I0"
    assert kodaira_type(3, 0, 0) == "I0"
    assert kodaira_type(0, 0, 5) == "I5"
    assert kodaira_type(1, 1, 2) == "II"
    assert kodaira_type(INFINITE_ORDER, 1, 2) == "II"
    assert kodaira_type(1, 2, 3) == "III"
    assert kodaira_type(1, INFINITE_ORDER, 3) == "III"
    assert kodaira_type(2, 2, 4) == "IV"
    assert kodaira_type(2, 3, 6) == "I0*"
    assert kodaira_type(2, INFINITE_ORDER, 6) == "I0*"
    assert kodaira_type(2, 3, 9) == "I3*"
    assert kodaira_type(3, 4, 8) == "IV*"
    assert kodaira_type(3, 5, 9) == "III*"
    assert kodaira_type(3, INFINITE_ORDER, 9) == "III*"
    assert kodaira_type(4, 5, 10) == "II*"
    assert kodaira_type(4, 6, 12) == "NON-MINIMAL"
    assert kodaira_type(4, INFINITE_ORDER, 12) == "NON-MINIMAL"


def test_surface_params_validation():
    with pytest.raises(ValueError):
        SurfaceParams([0] * 8, [0] * 13)
    with pytest.raises(ValueError):
        SurfaceParams([0] * 9, [0] * 12)


def test_surface_params_keep_their_values_when_the_input_lists_change():
    g2, g3 = list(range(9)), list(range(13))
    u = SurfaceParams(g2, g3)
    g2[0], g3[0] = 7, 7
    assert type(u.g2_coeffs) is tuple and type(u.g3_coeffs) is tuple
    assert u.g2_coeffs == tuple(range(9)) and u.g3_coeffs == tuple(range(13))


# ints beyond 2**64 and negative Fractions, mixed within one surface
json_coeffs = st.one_of(st.integers(), st.integers(-2**200, 2**200),
                        st.fractions(max_denominator=2**80), st.fractions(max_value=-1))


@example(rand_surface(random.Random(0), 10**30))  # big entries must survive as strings
@given(st.builds(SurfaceParams, st.lists(json_coeffs, min_size=9, max_size=9),
                 st.lists(json_coeffs, min_size=13, max_size=13)))
def test_surface_params_json_roundtrip(u):
    d = u.to_json_dict()
    assert all(isinstance(s, str) for s in d["g2"] + d["g3"])
    assert SurfaceParams.from_json_dict(json.loads(json.dumps(d))) == u


def test_surface_params_json_needs_arrays_of_decimals():
    # a string of the right length is not an array of coefficients
    with pytest.raises(ValueError):
        SurfaceParams.from_json_dict({"g2": "123456789", "g3": "1234567890123"})
    good = {"g2": ["1"] * 9, "g3": ["1"] * 13}
    for key, bad in (("g2", ["1_0"] + ["1"] * 8), ("g3", ["1"] * 12 + [1.0]),
                     ("g3", ["1"] * 12 + [True]), ("g2", None)):
        with pytest.raises(ValueError):
            SurfaceParams.from_json_dict(dict(good, **{key: bad}))
    # JSON integers are read through their decimal form
    u = SurfaceParams.from_json_dict({"g2": [1] * 9, "g3": [-2**70] + ["1/3"] * 12})
    assert u == SurfaceParams([1] * 9, [-2**70] + [Fraction(1, 3)] * 12)


def test_assemble_degrees_and_discriminant():
    rng = random.Random(1)
    u = rand_surface(rng)
    g2, g3, h = assemble(u)
    assert (g2.n, g3.n, h.n) == (8, 12, 24)
    assert h == 4 * g2**3 + 27 * g3**2


small_or_zero = st.one_of(st.just(0), st.integers(-9, 9))
int_coeffs = st.one_of(small_or_zero, st.integers(-10**6, 10**6))
rational_coeffs = st.one_of(small_or_zero, st.fractions(-9, 9, max_denominator=7))


@settings(max_examples=60)
@given(st.sampled_from([139, 10007, DEFAULTS.homogeneity_prime]),
       st.one_of(st.lists(int_coeffs, min_size=22, max_size=22),
                 st.lists(rational_coeffs, min_size=22, max_size=22)))
def test_residue_assembly_is_the_reduction(p, coeffs):
    u = SurfaceParams(coeffs[:9], coeffs[9:])
    up = u.reduce_mod(p)
    hp, h = assemble(up)[2], assemble(u)[2]
    assert all(isinstance(c, ModP) and c.p == p for c in hp.coeffs)
    assert hp == h.reduce_mod(p)
    if not hp.is_zero():
        assert k552(up).value == reduce_scalar_mod(k552(u).value, p)


@settings(max_examples=30)
@given(st.lists(st.one_of(int_coeffs, rational_coeffs, st.fractions(-10 ** 6, 10 ** 6, max_denominator=10 ** 6)),
                min_size=22, max_size=22))
def test_rational_assembly_matches_the_schoolbook_product(coeffs):
    """Over Q, h is convolved on the numerators over the common
    denominators and divided once: the schoolbook product on the ints and
    Fractions as given, with every coefficient a Fraction.  k552, whose J
    is taken the same way, still equals disc(h)."""
    u = SurfaceParams(coeffs[:9], coeffs[9:])
    h = assemble(u)[2]
    assert h.coeffs == schoolbook_h(u)
    if any(isinstance(c, Fraction) for c in coeffs):
        assert all(type(c) is Fraction for c in h.coeffs)
    if not h.is_zero():
        assert k552(u).value == discriminant_binary(BinaryForm(24, schoolbook_h(u)))


def test_residue_assembly_refuses_mixed_domains():
    with pytest.raises(DomainError):
        assemble(SurfaceParams([ModP(1, 7)] * 9, [ModP(1, 11)] * 13))
    with pytest.raises(DomainError):
        assemble(SurfaceParams([ModP(1, 7)] * 9, [Fraction(1, 2)] * 13))


def test_domain_error_names_only_the_coefficient_type():
    # assembling h takes no resultant, so the message names nothing but the type
    with pytest.raises(DomainError, match="^float coefficients$"):
        assemble(SurfaceParams([1.5] * 9, [0] * 13))


def test_fiber_profile_refuses_residues():
    # h = 4 g2^3 + 27 g3^2 is a nonzero residue form here; factoring it is over Q only
    up = SurfaceParams([1] + [0] * 7 + [1], [1] + [0] * 11 + [1]).reduce_mod(7)
    assert not assemble(up)[2].is_zero()
    with pytest.raises(DomainError, match="mod 7"):
        fiber_profile(up)


def test_generic_surface_profile():
    """A random surface generically has 24 distinct I_1 fibers."""
    rng = random.Random(2)
    hits = 0
    for _ in range(10):
        rep = fiber_profile(rand_surface(rng))
        assert rep.euler_sum == 24  # deg h = 24 always distributes fully
        assert rep.in_U
        if all(r.kodaira == "I1" for r in rep.places):
            hits += 1
    assert hits == 10


def test_euler_sum_is_24_whenever_h_nonzero():
    for u in (A1_SURFACE, II_SURFACE, DEEPER_SURFACE, NONMIN_SURFACE):
        rep = fiber_profile(u)
        if not rep.h_is_zero:
            assert rep.euler_sum == 24


X_PLACE = BinaryForm(1, [1, 0])
W_PLACE = BinaryForm(1, [0, 1])


def place_record(rep, place):
    (rec,) = [r for r in rep.places if r.place == place]
    return rec


def test_a1_fixture_profile():
    rep = fiber_profile(A1_SURFACE)
    assert rep.in_U
    x_rec = place_record(rep, X_PLACE)
    assert (x_rec.m2, x_rec.m3, x_rec.d, x_rec.kodaira) == (0, 0, 2, "I2")


def test_ii_fixture_profile():
    rep = fiber_profile(II_SURFACE)
    x_rec = place_record(rep, X_PLACE)
    assert (x_rec.m2, x_rec.m3, x_rec.d, x_rec.kodaira) == (1, 1, 2, "II")
    # the model is non-minimal at infinity (w divides g2, g3 to orders 7, 11)
    assert place_record(rep, W_PLACE).kodaira == "NON-MINIMAL"
    assert not rep.in_U


def test_nonminimal_fixture_not_in_U():
    rep = fiber_profile(NONMIN_SURFACE)
    assert not rep.in_U and not rep.h_is_zero
    tags = {r.kodaira for r in rep.places}
    assert "NON-MINIMAL" in tags


# the Kodaira type at x of g2 = 0, g3 = x^k B with B(0) != 0, k = 1..6:
# m2 is infinite, m3 = k and d = 2k
G2_ZERO_TYPES = ["II", "IV", "I0*", "IV*", "II*", "NON-MINIMAL"]


@pytest.mark.parametrize("k", range(1, 7))
def test_g2_zero_stratum_profile(k):
    """On the stratum g2 = 0, the type at x is set by ord_x g3 alone, and
    every other place, a simple root of B, is II."""
    rng = random.Random(k)
    B = [rng.randint(-9, 9) for _ in range(12 - k)] + [rng.choice([-1, 1]) * rng.randint(1, 9)]
    rep = fiber_profile(SurfaceParams([0] * 9, B + [0] * k))
    x_rec = place_record(rep, X_PLACE)
    assert (x_rec.m2, x_rec.m3, x_rec.d, x_rec.kodaira) == (INFINITE_ORDER, k, 2 * k, G2_ZERO_TYPES[k - 1])
    assert all(r.kodaira == "II" and r.m3 == 1 for r in rep.places if r is not x_rec)
    d = rep.to_json_dict()
    assert all(p["m2"] == "inf" for p in d["places"])
    assert d["euler_sum"] == 24 and d["in_U"] == (k < 6) and not d["h_is_zero"]


def test_h_identically_zero():
    # g2 = -3 w^8, g3 = 2 w^12 gives 4 g2^3 + 27 g3^2 = 0
    u = SurfaceParams([0] * 8 + [-3], [0] * 12 + [2])
    rep = fiber_profile(u)
    assert rep.h_is_zero and not rep.in_U and rep.places == []


def test_report_fields_derive_from_places():
    """A report stores its places only: h_is_zero, in_U and euler_sum (and
    each place's residue degree) are read off them, and cannot be set."""
    assert list(FiberReport.__slots__) == ["places"]
    assert list(PlaceRecord.__slots__) == ["place", "m2", "m3", "d", "kodaira"]
    empty = FiberReport([])
    assert (empty.h_is_zero, empty.in_U, empty.euler_sum) == (True, False, 0)
    conic = PlaceRecord(BinaryForm(2, [1, 0, 1]), 0, 0, 1, "I1")
    minimal = FiberReport([conic])
    assert (conic.residue_degree, minimal.h_is_zero, minimal.in_U, minimal.euler_sum) == (2, False, True, 2)
    rep = FiberReport([conic, PlaceRecord(W_PLACE, 4, 6, 12, "NON-MINIMAL")])
    assert (rep.h_is_zero, rep.in_U, rep.euler_sum) == (False, False, 14)
    with pytest.raises(AttributeError):
        rep.in_U = True


def test_infinity_place_counted():
    # g3 with a w factor: h picks up vanishing at [1:0]
    u = SurfaceParams([0] * 8 + [1], [0] * 11 + [1, 0])
    rep = fiber_profile(u)
    assert place_record(rep, W_PLACE).d >= 1


def test_degeneration_components():
    assert degeneration_component(A1_SURFACE) == "A1-component"
    assert degeneration_component(II_SURFACE) == "II-component"
    assert degeneration_component(DEEPER_SURFACE) == "deeper"


def test_degeneration_evaluates_no_k552(monkeypatch):
    def refuse(u):
        raise AssertionError("k552 evaluated")

    monkeypatch.setattr(invariants, "k552", refuse)
    assert degeneration_component(A1_SURFACE) == "A1-component"
    assert degeneration_component(II_SURFACE) == "II-component"
    assert degeneration_component(DEEPER_SURFACE) == "deeper"


def test_hand_expanded_collision_example():
    # g2 = -3 w^8, g3 = 2 w^12 + x^2 w^10:
    # h = 108 x^2 w^22 + 27 x^4 w^20 = 27 x^2 w^20 (x^2 + 4 w^2)
    u = SurfaceParams([0] * 8 + [-3], [0] * 10 + [1, 0, 2])
    rep = fiber_profile(u)
    x_rec = place_record(rep, X_PLACE)
    assert (x_rec.m2, x_rec.m3, x_rec.d, x_rec.kodaira) == (0, 0, 2, "I2")
    assert place_record(rep, W_PLACE).kodaira == "NON-MINIMAL"
    assert degeneration_component(u) == "A1-component"


def test_degeneration_requires_divisor_membership():
    rng = random.Random(3)
    with pytest.raises(ValueError):
        degeneration_component(rand_surface(rng))


def test_profile_sl2_equivariant():
    """Transforming (g2, g3) by gamma in SL2 permutes places but preserves
    the multiset of (residue_degree, m2, m3, d, kodaira)."""
    rng = random.Random(4)
    for u in (A1_SURFACE, II_SURFACE, DEEPER_SURFACE):
        g2, g3, _ = assemble(u)
        s = rng.randint(1, 3)
        mat = [[1, s], [0, 1]]
        ut = SurfaceParams(
            g2.substitute(mat).coeffs, g3.substitute(mat).coeffs
        )
        before = sorted(
            (r.residue_degree, r.m2, r.m3, r.d, r.kodaira) for r in fiber_profile(u).places
        )
        after = sorted(
            (r.residue_degree, r.m2, r.m3, r.d, r.kodaira) for r in fiber_profile(ut).places
        )
        assert before == after


def test_profile_gm_invariant():
    """Rescaling (g2, g3) -> (t^4 g2, t^6 g3) fixes the whole profile."""
    for u in (A1_SURFACE, II_SURFACE, NONMIN_SURFACE):
        t = 3
        ut = SurfaceParams(
            [t**4 * c for c in u.g2_coeffs], [t**6 * c for c in u.g3_coeffs]
        )
        assert fiber_profile(ut).to_json_dict() == fiber_profile(u).to_json_dict()


def test_report_json_shape():
    rep = fiber_profile(II_SURFACE)
    d = rep.to_json_dict()
    assert set(d) == {"places", "in_U", "h_is_zero", "euler_sum"}
    for p in d["places"]:
        assert set(p) == {"place", "residue_degree", "m2", "m3", "d", "kodaira"}
    # infinite orders serialize as "inf"
    u = SurfaceParams([0] * 8 + [1], [0] * 13)
    rep2 = fiber_profile(u)
    assert any(p["m3"] == "inf" for p in rep2.to_json_dict()["places"])
