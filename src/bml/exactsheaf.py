"""Exact rational calculus of slopes, filtrations and stability invariants.

Everything in this module runs in arbitrary-precision rational arithmetic
(`fractions.Fraction`); no floating point enters.  The objects are sheaf
data for split bundles on P^1 and the tangent bundle of P^2, weighted
filtrations by saturated subsheaves, and the rational invariants attached
to them: the slope mu, the non-Archimedean slope of the energy along a
one-parameter degeneration, the predicted asymptotic slope of the log-det
energy, and the section-count (Le Potier) comparisons that detect
Gieseker stability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence


class EmptyCandidates(ValueError):
    pass


class UnsupportedBundle(ValueError):
    pass


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


# ---------------------------------------------------------------------------
# Sheaf data


def h0_p1(d: int) -> int:
    """dim H^0(P^1, O(d))."""
    return max(d + 1, 0)


def h0_p2(d: int) -> int:
    """dim H^0(P^2, O(d))."""
    return (d + 1) * (d + 2) // 2 if d >= 0 else 0


def h0_tangent_p2(m: int) -> int:
    """dim H^0(P^2, T(m)) from the Euler sequence (valid for m >= -1)."""
    if m < -1:
        raise UnsupportedBundle("twist below the vanishing range")
    return 3 * h0_p2(m + 1) - h0_p2(m)


@dataclass(frozen=True)
class SheafData:
    """A catalog bundle: the direct sum of the O(d) for d in ``degrees``
    on P^1 (``kind`` "split_p1") or the tangent bundle of P^2 (``kind``
    "euler_tp2", no degrees).

    Everything else derives from (kind, degrees); rank and degree are
    fixed once at construction, so reading them is a field read.
    """

    kind: str
    degrees: tuple = ()
    rank: int = field(init=False, repr=False, compare=False)
    degree: Fraction = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        degrees = tuple(self.degrees)
        if self.kind == "split_p1" and degrees:
            rank, degree = len(degrees), Fraction(sum(degrees))
        elif self.kind == "euler_tp2" and not degrees:
            rank, degree = 2, Fraction(3)
        else:
            raise ValueError(f"no catalog bundle of kind {self.kind!r} with degrees {degrees}")
        object.__setattr__(self, "degrees", degrees)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "degree", degree)

    @property
    def space_tag(self) -> str:
        return "P1" if self.kind == "split_p1" else "P2"

    @property
    def label(self) -> str:
        if self.kind == "euler_tp2":
            return "T_P2"
        return "O(" + ")+O(".join(str(d) for d in self.degrees) + ")"

    def h0_at(self, k: int) -> int:
        if self.kind == "split_p1":
            return sum(h0_p1(d + k) for d in self.degrees)
        return h0_tangent_p2(k)

    def regularity(self) -> int:
        """Castelnuovo-Mumford regularity.

        Split bundles on P^1: H^1(O(d-1)) = 0 iff d >= 0, so reg = max(-d_i).
        The tangent bundle of P^2: twisting the Euler sequence and chasing
        the long exact sequence gives H^1(T(-2)) = H^2(T(-3)) = 0 while
        H^1(T(-3)) is one-dimensional, so reg = -1.
        """
        return max(-d for d in self.degrees) if self.kind == "split_p1" else -1


def split_p1(degrees: Sequence[int]) -> SheafData:
    return SheafData("split_p1", degrees)


def mu(sheaf: SheafData) -> Fraction:
    """Slope degree/rank, exactly."""
    return sheaf.degree / sheaf.rank


# ---------------------------------------------------------------------------
# Filtrations and weight gradings


@dataclass(frozen=True)
class FiltrationSpec:
    """Filtration by saturated subsheaves with section-space dimensions.

    ``weights`` are the strictly decreasing eigenvalues of the generator;
    ``steps[i]`` is the subsheaf spanned below weight level i (so ranks are
    nondecreasing and the last step is the ambient sheaf); ``v_dims[i]``
    is the dimension of the corresponding flag step in the section space
    at the working ``level``.
    """

    weights: tuple
    steps: tuple
    v_dims: tuple
    ambient: SheafData
    level: int

    def __post_init__(self):
        ws = tuple(_frac(w) for w in self.weights)
        object.__setattr__(self, "weights", ws)
        object.__setattr__(self, "steps", tuple(self.steps))
        object.__setattr__(self, "v_dims", tuple(int(v) for v in self.v_dims))
        if not all(a > b for a, b in zip(ws, ws[1:])):
            raise ValueError("weights must be strictly decreasing")
        if len(self.steps) != len(ws) or len(self.v_dims) != len(ws):
            raise ValueError("weights, steps and v_dims must have equal length")
        ranks = [s.rank for s in self.steps]
        if any(a > b for a, b in zip(ranks, ranks[1:])):
            raise ValueError("step ranks must be nondecreasing")
        if ranks[-1] != self.ambient.rank:
            raise ValueError("last step must have the ambient rank")
        if not all(a < b for a, b in zip(self.v_dims, self.v_dims[1:])):
            raise ValueError("v_dims must be strictly increasing")
        mult = [self.v_dims[0]] + [
            b - a for a, b in zip(self.v_dims, self.v_dims[1:])
        ]
        if sum(w * m for w, m in zip(ws, mult)) != 0:
            raise ValueError("weights must be trace-free against v_dims")
        if max(abs(w) for w in ws) > 1:
            raise ValueError("weight operator norm must be <= 1")

    def graded_ranks(self) -> list:
        ranks = [s.rank for s in self.steps]
        return [ranks[0]] + [b - a for a, b in zip(ranks, ranks[1:])]

    def h0_ambient(self) -> int:
        return self.v_dims[-1]


def two_step_filtration(sub_degrees, degrees, k: int, weights) -> FiltrationSpec:
    """The filtration O(sub_degrees) < O(degrees) of a split bundle on P^1
    at level k, with its flag dimensions the section counts h0."""
    sub, ambient = split_p1(sub_degrees), split_p1(degrees)
    return FiltrationSpec(
        weights=tuple(weights), steps=(sub, ambient),
        v_dims=(sub.h0_at(k), ambient.h0_at(k)), ambient=ambient, level=k,
    )


def j_of_zeta(weights: Sequence) -> int:
    """Least common multiple of the reduced denominators."""
    return math.lcm(*[_frac(w).denominator for w in weights]) if weights else 1


@dataclass(frozen=True)
class WeightGrading:
    j: int
    integer_weights: tuple
    surviving_indices: tuple


def weight_grading(filt: FiltrationSpec) -> WeightGrading:
    j = j_of_zeta(filt.weights)
    iw = tuple(int(w * j) for w in filt.weights)
    gr = filt.graded_ranks()
    surv = tuple(i for i, g in enumerate(gr) if g > 0)
    if not surv or surv[0] != 0:
        raise ValueError("the top weight must always survive")
    return WeightGrading(j=j, integer_weights=iw, surviving_indices=surv)


def m_na(filt: FiltrationSpec) -> Fraction:
    """Non-Archimedean slope (2/j) sum_q rk(E_q) (mu(E) - mu(E_q)) over
    the integer grades q.  Step E_i is active on j (w_i - w_{i+1}) grades
    and the last step, E itself, contributes nothing, so the sum is

        2 sum_{i < nu-1} (w_i - w_{i+1}) rk(E_i) (mu(E) - mu(E_i)).
    """
    ws, mu_e = filt.weights, mu(filt.ambient)
    steps = zip(ws, ws[1:], filt.steps)
    return 2 * sum(((a - b) * e.rank * (mu_e - mu(e)) for a, b, e in steps), Fraction(0))


def j_na(grading: WeightGrading, weights: Sequence) -> Fraction:
    """Largest gap between surviving weights; zero iff the filtration is trivial."""
    ws = [_frac(weights[i]) for i in grading.surviving_indices]
    return max(ws) - min(ws)


def m2_slope_prediction(filt: FiltrationSpec) -> Fraction:
    """Exact predicted asymptotic slope of the log-det energy M2 along
    the one-parameter degeneration defined by ``filt``: the sum over the
    integer grades q of (2/j) (r/h0) rk(E_q) (h0/r - v_q/rk(E_q)), taken
    step by step as for m_na,

        2 (r/h0) sum_{i < nu-1} (w_i - w_{i+1}) (rk(E_i) h0/r - v_i).
    """
    ws, r, h0 = filt.weights, filt.ambient.rank, filt.h0_ambient()
    steps = zip(ws, ws[1:], filt.steps, filt.v_dims)
    total = sum(((a - b) * (Fraction(e.rank * h0, r) - v) for a, b, e, v in steps), Fraction(0))
    return 2 * Fraction(r, h0) * total


def weight_sum_identity(filt: FiltrationSpec) -> tuple:
    """Return (lhs, rhs): lhs = sum_i w_i rk(gr_i E), rhs = the predicted
    M2 slope.  The trace-free constraint forces rhs = 2 lhs exactly."""
    lhs = sum(
        (w * g for w, g in zip(filt.weights, filt.graded_ranks())), Fraction(0)
    )
    rhs = m2_slope_prediction(filt)
    return lhs, rhs


# ---------------------------------------------------------------------------
# Stability verdicts


def le_potier_verdict(sub: SheafData, ambient: SheafData, k: int) -> int:
    """Sign of h0(F(k))/rk(F) - h0(E(k))/rk(E).

    Positive means the subsheaf destabilizes in the Gieseker sense at
    level k, zero means borderline, negative means it does not.
    """
    if not 0 < sub.rank < ambient.rank:
        raise ValueError("need a proper nonzero subsheaf")
    diff = Fraction(sub.h0_at(k), sub.rank) - Fraction(ambient.h0_at(k), ambient.rank)
    return (diff > 0) - (diff < 0)


def slope_stability_verdict(ambient: SheafData, candidates: Sequence[SheafData]):
    """Slope-compare against a user-supplied list of saturated subsheaves.

    Returns (verdict, witness) where verdict is one of 'stable',
    'semistable', 'unstable' relative to the list and witness is the
    candidate of maximal slope.
    """
    if not candidates:
        raise EmptyCandidates("need at least one candidate subsheaf")
    mu_e = mu(ambient)
    witness = max(candidates, key=lambda c: (mu(c), c.rank))
    top = mu(witness)
    if top > mu_e:
        return "unstable", witness
    if top == mu_e:
        return "semistable", witness
    return "stable", witness


# ---------------------------------------------------------------------------
# Serialization helpers


def frac_str(x: Fraction) -> str:
    x = _frac(x)
    return f"{x.numerator}" if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
