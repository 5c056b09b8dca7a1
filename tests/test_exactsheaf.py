from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bml import bundles as bd
from bml import exactsheaf as xs


def catalog_filtration() -> xs.FiltrationSpec:
    """O(0)+O(2) at level 3, destabilized by the O(2) summand."""
    ambient = xs.split_p1([0, 2])
    sub = xs.line_p1(2)
    return xs.FiltrationSpec(
        weights=(Fraction(2, 3), Fraction(-1)),
        steps=(sub, ambient),
        v_dims=(6, 10),
        ambient=ambient,
        level=3,
    )


def test_h0_counts():
    assert xs.h0_p1(3) == 4
    assert xs.h0_p1(-1) == 0
    assert xs.h0_p2(2) == 6
    assert xs.h0_tangent_p2(0) == 8
    assert xs.h0_tangent_p2(1) == 15


def test_slopes():
    assert xs.mu(xs.split_p1([0, 2])) == 1
    assert xs.mu(xs.line_p1(2)) == 2
    assert xs.mu(xs.tangent_p2()) == Fraction(3, 2)


def test_catalog_invariants():
    filt = catalog_filtration()
    grading = xs.weight_grading(filt)
    assert grading.j == 3
    assert grading.integer_weights == (2, -3)
    assert xs.m_na(filt) == Fraction(-10, 3)
    assert xs.j_na(grading, filt.weights) == Fraction(5, 3)
    assert xs.m2_slope_prediction(filt) == Fraction(-2, 3)


def test_weight_sum_identity_catalog():
    lhs, rhs = xs.weight_sum_identity(catalog_filtration())
    assert rhs == 2 * lhs == Fraction(-2, 3)


def test_trivial_filtration_vanishes():
    ambient = xs.split_p1([0, 2])
    filt = xs.trivial_filtration(ambient, 3)
    assert xs.m_na(filt) == 0
    assert xs.m2_slope_prediction(filt) == 0
    grading = xs.weight_grading(filt)
    assert xs.j_na(grading, filt.weights) == 0


def test_filtration_validation():
    ambient = xs.split_p1([0, 2])
    sub = xs.line_p1(2)
    with pytest.raises(ValueError, match="decreasing"):
        xs.FiltrationSpec(
            weights=(Fraction(-1), Fraction(2, 3)),
            steps=(sub, ambient), v_dims=(6, 10), ambient=ambient, level=3,
        )
    with pytest.raises(ValueError, match="trace-free"):
        xs.FiltrationSpec(
            weights=(Fraction(1, 2), Fraction(-1)),
            steps=(sub, ambient), v_dims=(6, 10), ambient=ambient, level=3,
        )
    with pytest.raises(ValueError, match="norm"):
        xs.FiltrationSpec(
            weights=(Fraction(4, 3), Fraction(-2)),
            steps=(sub, ambient), v_dims=(6, 10), ambient=ambient, level=3,
        )
    with pytest.raises(ValueError, match="ambient rank"):
        xs.FiltrationSpec(
            weights=(Fraction(2, 3), Fraction(-1)),
            steps=(sub, sub), v_dims=(6, 10), ambient=ambient, level=3,
        )


def test_weight_sum_identity_randomized():
    from bml.acceptance import _random_filtration

    rng = np.random.default_rng(99)
    for _ in range(200):
        filt = _random_filtration(rng)
        lhs, rhs = xs.weight_sum_identity(filt)
        assert rhs == 2 * lhs


def test_two_step_closed_form_randomized():
    rng = np.random.default_rng(7)
    for _ in range(100):
        degs = tuple(int(rng.integers(-2, 5)) for _ in range(int(rng.integers(2, 5))))
        r1 = int(rng.integers(1, len(degs)))
        ambient = xs.split_p1(degs)
        sub = xs.split_p1(degs[:r1])
        k = xs.regularity_catalog(degs) + 1
        v1 = sum(xs.h0_p1(d + k) for d in degs[:r1])
        v2 = ambient.h0_at(k)
        m1, m2 = v1, v2 - v1
        top = max(m1, m2)
        filt = xs.FiltrationSpec(
            weights=(Fraction(m2, top), Fraction(-m1, top)),
            steps=(sub, ambient), v_dims=(v1, v2), ambient=ambient, level=k,
        )
        closed = 2 * (filt.weights[0] - filt.weights[1]) * sub.rank * (
            xs.mu(ambient) - xs.mu(sub)
        )
        assert xs.m_na(filt) == closed


def grade_sums(filt: xs.FiltrationSpec) -> tuple:
    """(m_na, m2_slope_prediction) as the sums over integer grades q that
    define them: the step active at q is the deepest i with -j w_i <= q."""
    grading = xs.weight_grading(filt)
    iw = grading.integer_weights
    r, h0, mu_e = filt.ambient.rank, filt.h0_ambient(), xs.mu(filt.ambient)
    m_na = m2 = Fraction(0)
    for q in range(-iw[0], -iw[-1]):
        i = max(i for i, w in enumerate(iw) if -w <= q)
        step = filt.steps[i]
        m_na += step.rank * (mu_e - xs.mu(step))
        m2 += step.rank * (Fraction(h0, r) - Fraction(filt.v_dims[i], step.rank))
    return Fraction(2, grading.j) * m_na, Fraction(2, grading.j) * Fraction(r, h0) * m2


def criterion_1_filtrations() -> list:
    """The 1,000 random and the 200 two-step filtrations of criterion 1,
    drawn from its seed in its order."""
    from bml.acceptance import _random_filtration

    rng = np.random.default_rng(20260823)
    out = [_random_filtration(rng) for _ in range(1000)]
    for _ in range(200):
        n_sum = int(rng.integers(2, 5))
        degs = tuple(int(rng.integers(-2, 5)) for _ in range(n_sum))
        r1 = int(rng.integers(1, n_sum))
        ambient = xs.split_p1(degs)
        k = xs.regularity_catalog(degs) + 1
        v1 = sum(xs.h0_p1(d + k) for d in degs[:r1])
        v2 = ambient.h0_at(k)
        top = max(v1, v2 - v1)
        out.append(xs.FiltrationSpec(
            weights=(Fraction(v2 - v1, top), Fraction(-v1, top)),
            steps=(xs.split_p1(degs[:r1]), ambient), v_dims=(v1, v2), ambient=ambient, level=k,
        ))
    return out


def test_step_sums_equal_grade_sums():
    filts = criterion_1_filtrations()
    assert len(filts) == 1200 and len({f.nu for f in filts}) == 3
    for filt in filts + [catalog_filtration(), xs.trivial_filtration(xs.split_p1([0, 2]), 3)]:
        assert (xs.m_na(filt), xs.m2_slope_prediction(filt)) == grade_sums(filt)


def test_stability_verdicts():
    ambient = xs.split_p1([0, 2])
    sub = xs.line_p1(2)
    assert xs.le_potier_verdict(sub, ambient, 3) == 1
    verdict, witness = xs.slope_stability_verdict(ambient, [sub, xs.line_p1(0)])
    assert verdict == "unstable" and witness.label == "O(2)"
    verdict, _ = xs.slope_stability_verdict(xs.split_p1([1, 1]), [xs.line_p1(1)])
    assert verdict == "semistable"
    with pytest.raises(xs.EmptyCandidates):
        xs.slope_stability_verdict(ambient, [])


def test_f_max_split():
    f = xs.f_max_split([0, 2, 2, -1])
    assert f.rank == 2 and f.degree == 4


def test_regularity_catalog():
    assert xs.regularity_catalog((0, 2)) == 0
    assert xs.regularity_catalog((2,)) == -2
    assert xs.regularity_catalog("euler_tp2") == -1
    assert xs.regularity_catalog(xs.tangent_p2()) == -1
    for presentation in (bd.euler_tp2(), bd.split(0, 2)):
        with pytest.raises(xs.UnsupportedBundle):
            xs.regularity_catalog(presentation)


@given(st.fractions(max_denominator=1000))
@settings(max_examples=200, deadline=None)
def test_frac_str_roundtrip(x):
    assert xs.parse_frac(xs.frac_str(x)) == x


def test_catalog_h0_closed_form():
    assert xs.split_p1([0, 2]).h0_at(40) == 84
    assert xs.line_p1(2).h0_at(-9) == 0
    assert xs.tangent_p2().h0_at(30) == xs.h0_tangent_p2(30)
