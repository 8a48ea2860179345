"""Acceptance suite: the nine headline claims of the artifact, each as one
test that prints a single PASS/FAIL line.  All checks are exact (integer or
rational arithmetic, or arithmetic mod the pinned prime 2**62 + 135); there are no
numerical tolerances anywhere.

Budget: the whole file runs in well under five minutes on commodity
hardware; the heaviest item is the degree-<=24 kernel-oracle sweep.
"""

import random

from ellk3.binforms import BinaryForm
from ellk3.hilbert import character_series, invariant_dimension_oracle, molien_series
from ellk3.invariants import (
    DEFAULTS,
    delta264,
    gm_act,
    grading_constants,
    k552,
    r96,
    random_sl2,
    random_surface,
    sl2_act,
    slice_divisibility,
)
from ellk3.qseries import borcherds_input
from ellk3.scalars import ModP
from ellk3.weierstrass import SurfaceParams, fiber_profile

P62 = DEFAULTS.homogeneity_prime  # 2**62 + 135, pinned for mod-p checks


def report(name, ok, detail=""):
    line = "[%s] %s" % ("PASS" if ok else "FAIL", name)
    if detail:
        line += " -- " + detail
    print(line)
    assert ok, line


def test_criterion_1_borcherds_coefficients():
    """q^-1..q^2 of 1728 E4/(E4^3 - E6^2) are 1, 264, 8244, 139520."""
    b = borcherds_input(2)
    got = [int(b[k]) for k in range(-1, 3)]
    ok = got == [1, 264, 8244, 139520] and b.e0 == -1
    report("criterion 1: Borcherds-input coefficients", ok, "got %s" % got)


def test_criterion_2_divisibility_at_points():
    """k552(u) = r96(u)^3 * delta264(u) exactly in Z, 200 seeded trials."""
    rng = random.Random(20240)
    failures = 0
    done = 0
    while done < 200:
        u = random_surface(rng, 9)
        r = r96(u).value
        if r == 0:
            continue
        done += 1
        k = k552(u).value
        d = delta264(u).value
        if not (isinstance(d, int) and k == d * r**3):
            failures += 1
    report("criterion 2: pointwise integer divisibility (200 trials)",
           failures == 0, "%d failures" % failures)


def test_criterion_3_divisibility_on_slices():
    """Exact univariate division of k552(u(s)) by r96(u(s))^3 on 5 seeded
    random lines, over Q (no modulus)."""
    rng = random.Random(30303)
    bad = 0
    for _ in range(5):
        u0 = random_surface(rng, 9)
        u1 = random_surface(rng, 9)
        wit = slice_divisibility(u0, u1, modulus=None)
        if not wit.success or wit.quotient_degree != wit.k_degree - wit.r3_degree:
            bad += 1
    report("criterion 3: slice divisibility (5 rational lines)", bad == 0,
           "%d bad lines" % bad)


def test_criterion_4_weighted_homogeneity():
    """r96, k552, delta264 scale by lambda^96, lambda^552, lambda^264 for
    50 random (lambda, u), mod the pinned prime 2**62 + 135."""
    rng = random.Random(44)
    bad = 0
    done = 0
    while done < 50:
        u = random_surface(rng, 9).reduce_mod(P62)
        lam = ModP(rng.randrange(2, 10**9), P62)
        r0, r1 = r96(u).value, r96(gm_act(lam, u)).value
        k0, k1 = k552(u).value, k552(gm_act(lam, u)).value
        if r0 == ModP(0, P62):
            continue
        done += 1
        d0 = k0 / r0**3
        d1 = k1 / r1**3 if r1 != ModP(0, P62) else None
        ok = (r1 == lam**96 * r0 and k1 == lam**552 * k0
              and d1 is not None and d1 == lam**264 * d0)
        if not ok:
            bad += 1
    report("criterion 4: weighted homogeneity 96/552/264 (50 trials)",
           bad == 0, "%d failures" % bad)


def test_criterion_5_sl2_invariance():
    """r96 and k552 are unchanged under 50 random unimodular
    substitutions, exactly over Z."""
    rng = random.Random(55)
    bad = 0
    for _ in range(50):
        u = random_surface(rng, 9)
        g = random_sl2(rng)
        v = sl2_act(g, u)
        if r96(v).value != r96(u).value or k552(v).value != k552(u).value:
            bad += 1
    report("criterion 5: SL2-invariance of r96 and k552 (50 trials)",
           bad == 0, "%d failures" % bad)


def test_criterion_6_molien_vs_oracle():
    """The Molien-Weyl residue coefficients equal the raising-operator
    kernel dimensions (certified over Q) for every t-degree <= 24."""
    H = molien_series(24)
    mismatches = []
    for d in range(25):
        if invariant_dimension_oracle(d) != H[d]:
            mismatches.append(d)
    anchors = (H[0], H[4], H[6], H[8], H[12]) == (1, 0, 0, 1, 2)
    report("criterion 6: Molien series vs kernel oracle, all degrees <= 24",
           not mismatches and anchors, "mismatches at %s" % mismatches)


def test_criterion_7_character_extension():
    """with_characters(t) = (1 + t^132) * plain(t) up to t-degree 300."""
    plain, ext = character_series(300)
    ok = all(
        ext[k] == plain[k] + (plain[k - 132] if k >= 132 else 0)
        for k in range(301)
    )
    report("criterion 7: rank-2 character extension to degree 300", ok)


def test_criterion_8_fiber_accounting():
    """100 seeded random surfaces: the vanishing orders of h distribute a
    total of 24; generic surfaces give 24 x I1.  The constructed fixtures
    give I2 resp. II, and r96 = 0 precisely on the II fixture."""
    rng = random.Random(88)
    bad = 0
    generic_all_I1 = 0
    for _ in range(100):
        u = random_surface(rng, 9)
        rep = fiber_profile(u)
        if rep.h_is_zero:
            continue
        if rep.euler_sum != 24:
            bad += 1
        if all(r.kodaira == "I1" for r in rep.places):
            generic_all_I1 += 1

    # I2 fixture: g2 = -3 f^2, g3 = 2 f^3 + x^2 r collides two I1 fibers
    f = BinaryForm(4, [1, 0, 0, 1, 2])
    rr = BinaryForm(10, [1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 3])
    g2 = -3 * (f**2)
    g3 = 2 * (f**3) + BinaryForm(2, [1, 0, 0]) * rr
    u_i2 = SurfaceParams(g2.coeffs, g3.coeffs)
    rep_i2 = fiber_profile(u_i2)
    i2_ok = (
        rep_i2.in_U
        and sum(1 for r in rep_i2.places if r.kodaira == "I2") == 1
        and k552(u_i2).value == 0
        and r96(u_i2).value != 0
    )

    # II fixture: g2 = x w^7, g3 = x w^11 has a type II fiber at x = 0
    u_ii = SurfaceParams([0] * 7 + [1, 0], [0] * 11 + [1, 0])
    rep_ii = fiber_profile(u_ii)
    ii_ok = (
        any(r.kodaira == "II" for r in rep_ii.places)
        and r96(u_ii).value == 0
    )

    ok = bad == 0 and generic_all_I1 >= 95 and i2_ok and ii_ok
    report(
        "criterion 8: fiber accounting (100 trials + I2/II fixtures)", ok,
        "%d bad sums, %d generic, I2 %s, II %s"
        % (bad, generic_all_I1, i2_ok, ii_ok),
    )


def test_criterion_9_grading_constants():
    """grading_constants returns -114, 18, 132, 264 with the canonical
    weight recomputed from the variable weight table."""
    g = grading_constants()
    ok = (
        g["canonical_weight"] == -114
        and g["modular_dim"] == 18
        and g["borcherds_weight"] == 132
        and g["relation_weight"] == 264
        and g["canonical_weight"] == -sum(g["variable_weights"])
        and g["variable_weights"] == (4,) * 9 + (6,) * 13
    )
    report("criterion 9: grading constants (-114, 18, 132, 264)", ok,
           str({k: g[k] for k in ("canonical_weight", "modular_dim",
                                  "borcherds_weight", "relation_weight")}))
