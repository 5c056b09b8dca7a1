"""The four benchmark workloads, each a set-up plus a repeatable round.

A workload's constructor builds every input from the seed and makes one
tiny warm-up call per kernel, so that lazy imports and cached self-tests
are paid in set-up.  ``round(ops)`` runs the same operations every time,
checks each output against `oracles`, and returns the call counts the
trace must show for that round.  Operations call `bml` through module
attributes, so wrappers installed by the tracer are always the ones hit.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

from bml import balance as bl
from bml import bergman as bg
from bml import bundles as bd
from bml import donaldson as don
from bml import exactsheaf as xs
from bml import quadrature as qd

import oracles as orc


class CheckFailed(AssertionError):
    pass


def check(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def require_digits(value, exact, need: float, what: str, scale=None) -> float:
    d = orc.digits(value, exact, scale)
    check(d >= need, f"{what}: {value!r} vs {exact!r} ({d:.2f} < {need} digits)")
    return d


class Ops:
    """Tally of the operations of a run: attempted, failed, and the
    fewest correct digits among the oracle comparisons that passed.
    Each operation's time goes to ``clock`` (a `calibrate.ScaledClock`)."""

    def __init__(self, clock):
        self.attempted = 0
        self.failed = 0
        self.wrong = []
        self.errors = []
        self.digits = orc.DIGITS_CAP
        self.clock = clock

    def run(self, name: str, fn) -> None:
        self.attempted += 1
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            got = fn()
        except CheckFailed as exc:
            self.failed += 1
            self.wrong.append(f"{name}: {exc}")
        except Exception as exc:  # a raising call is a failed operation
            self.failed += 1
            self.errors.append(f"{name}: {type(exc).__name__}: {exc}")
        else:
            if got is not None:
                self.digits = min(self.digits, got)
        self.clock.add(time.perf_counter() - w0, time.process_time() - c0)


def _tiny_grid():
    return qd.build_grid_p1(n_radial=2, n_angular=4, depth=2)


def _split_filtration(sub_degrees, degrees, k, weights) -> xs.FiltrationSpec:
    sub, ambient = xs.split_p1(sub_degrees), xs.split_p1(degrees)
    v1 = sum(xs.h0_p1(d + k) for d in sub_degrees)
    return xs.FiltrationSpec(
        weights=weights, steps=(sub, ambient), v_dims=(v1, ambient.h0_at(k)),
        ambient=ambient, level=k,
    )


# ---------------------------------------------------------------------------
# energy_path: criterion 4 on the default grid


class EnergyPath:
    """Combined energy M1 + mu M2 along the destabilizing 1-PS of
    O(0)+O(2) at k=3, the bounded trivial-saturation path of O(0) at k=2,
    the closed-form O(0), k=1 path and the curvature degree integral."""

    CALIBRATION = "numeric"

    K = 3
    N_PATH_MAIN = 6  # Gauss nodes per interval, as in criterion 4
    N_PATH_TRIVIAL = 14  # 7 nodes on each of two intervals

    def __init__(self, rng: np.random.Generator):
        k = self.K
        self.grid = qd.build_grid_p1()
        self.basis = bd.section_basis(bd.split(0, 2), k)
        self.w = orc.two_step_weights(k + 3, k + 1)  # O(2) block first
        self.ps = bg.two_step_one_ps(self.basis, [1], tuple(float(w) for w in self.w))
        # blocks in weight order: O(2) then O(0); rank one each
        self.slope = orc.split_combined_slope(self.w, (2, 0), (1, 1), 1)
        self.m_na = orc.m_na_two_step(*self.w, 1, 2, 2, 2)
        check(self.slope == self.m_na, "oracle set-up: combined slope != m_na")
        self.filt = _split_filtration([2], [0, 2], k, self.w)
        self.t_end = float(rng.uniform(6.0, 15.0))
        self.t_curv = float(rng.uniform(0.2, 3.0))

        self.basis0 = bd.section_basis(bd.split(0), 2, orthonormal=False)
        self.ps0 = bg.one_ps(np.diag([0.5, -1.0, 0.5]))
        self.ts0 = np.sort(rng.uniform(2.0, 20.0, 2))

        self.basis1 = bd.section_basis(bd.split(0), 1)
        self.ps1 = bg.one_ps(np.diag([1.0, -1.0]))
        self.ts1 = 1.0 + np.arange(10) + rng.uniform(-0.2, 0.2, 10)

        tiny = _tiny_grid()
        don.m1_curve(self.basis, tiny, self.ps, [1.0], n_path=4, method="analytic")
        don.m2_along_path(self.basis1, tiny, self.ps1, [1.0])
        don.curvature_field(self.basis1, tiny, self.ps1.form_at(0.5), method="analytic")
        don.asymptotic_slope_fit(np.arange(5.0), np.arange(5.0), t_min=0.0)
        xs.m_na(self.filt)

    def _combined(self):
        t = self.t_end
        m1 = don.m1_curve(self.basis, self.grid, self.ps, [t],
                          n_path=self.N_PATH_MAIN, method="analytic")[0]
        m2 = don.m2_along_path(self.basis, self.grid, self.ps, [t])[0]
        check(xs.m_na(self.filt) == self.m_na, "m_na differs from its closed form")
        d2 = require_digits(m2, orc.m2_block_path(t, self.w, (1, 1)), 6, "M2(t)")
        dc = require_digits(m1 + m2, t * float(self.slope), 6, "M1 + mu M2")
        return min(d2, dc)

    def _curvature(self):
        f = don.curvature_field(self.basis, self.grid, self.ps.form_at(self.t_curv),
                                method="analytic")
        deg = float(np.dot(self.grid.weights, np.trace(f, axis1=1, axis2=2).real))
        return require_digits(deg, 2, 6, "int tr F")

    def _trivial(self):
        m1 = don.m1_curve(self.basis0, self.grid, self.ps0, self.ts0,
                          n_path=self.N_PATH_TRIVIAL, method="analytic")
        check(np.isfinite(m1).all() and np.abs(m1).max() <= 1.0,
              f"trivial-saturation energy not bounded by 1: {m1}")

    def _closed_form(self):
        m2 = don.m2_along_path(self.basis1, self.grid, self.ps1, self.ts1)
        worst = orc.DIGITS_CAP
        for t, v in zip(self.ts1, m2):
            exact = orc.line_two_weight_m2(float(t))
            check(abs(v - exact) <= 1e-6, f"M2({t}) = {v} vs 2t coth 2t - 1 = {exact}")
            worst = min(worst, orc.digits(v, exact))
        fit = don.asymptotic_slope_fit(self.ts1, m2, t_min=5.5, predicted=2.0)
        check(abs(fit.slope - 2.0) <= 1e-4, f"closed-form slope {fit.slope}")
        return worst

    def round(self, ops: Ops) -> dict:
        ops.run("combined O(0)+O(2)", self._combined)
        ops.run("curvature degree", self._curvature)
        ops.run("trivial saturation", self._trivial)
        ops.run("closed form O(0)", self._closed_form)
        m1_nodes = max(4, self.N_PATH_MAIN) + len(self.ts0) * max(
            4, self.N_PATH_TRIVIAL // len(self.ts0))
        return {"m1_rate": m1_nodes, "t_operator": 0}


# ---------------------------------------------------------------------------
# balance_flow: criterion 7


class _Case:
    def __init__(self, degrees, k, grid, H0):
        self.label = "O(" + ")+O(".join(map(str, degrees)) + ")"
        self.basis = bd.section_basis(bd.split(*degrees), k)
        self.grid = grid
        self.H0 = H0 if H0 is not None else np.eye(self.basis.dimension)
        self.rank = len(degrees)
        self.q = orc.split_q(degrees, k, grid.nodes)


def _random_form(rng: np.random.Generator, n: int) -> np.ndarray:
    """e^Z for a random trace-free hermitian Z of operator norm one: a
    seeded start at a fixed distance from the balanced form I, so that
    the solvers' iteration counts barely depend on the seed."""
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    lam, v = np.linalg.eigh(0.5 * (g + g.conj().T))
    lam -= lam.mean()
    return (v * np.exp(lam / np.abs(lam).max())) @ v.conj().T


class BalanceFlow:
    """T-iteration and LM from seeded forms on the stable line
    bundles O(2), O(3) at k=2 and from I on O(1)+O(1) at k=2; both solvers
    from I on the unstable O(0)+O(2) at k=3 until they diverge."""

    CALIBRATION = "numeric"

    def __init__(self, rng: np.random.Generator):
        light = qd.build_grid_p1(n_radial=6, n_angular=16, depth=12)
        # The divergent runs need about 50 T-steps and 100 LM steps; a
        # coarse grid keeps a round short, and the divergence signature
        # (iterate slope -2/3) does not depend on the resolution.
        coarse = qd.build_grid_p1(n_radial=3, n_angular=8, depth=6)
        self.stable = []
        for degrees in ((2,), (3,)):
            self.stable.append(_Case(degrees, 2, light, _random_form(rng, degrees[0] + 3)))
        self.stable.append(_Case((1, 1), 2, light, None))
        self.unstable = _Case((0, 2), 3, coarse, None)
        w1, w2 = orc.two_step_weights(6, 4)
        self.weight_range = float(w1 - w2)
        self.iterate_slope = float(2 * (w1 + w2))  # M2 slope of the block path

        tiny_basis = bd.section_basis(bd.split(0), 1)
        tiny, eye = _tiny_grid(), np.eye(tiny_basis.dimension)
        bl.t_iterate(tiny_basis, tiny, eye, max_iter=1)
        bl.lm_minimize(tiny_basis, tiny, eye, max_iter=1)
        self.t_steps = 0

    def _state_checks(self, case, st) -> float:
        d = require_digits(np.trace(st.center_of_mass).real, case.rank, 10, "tr M(H)")
        _, own = orc.center_of_mass(case.q, case.grid.weights, case.grid.volume, st.H)
        check(abs(own - st.residual) <= 1e-8 * max(1.0, own),
              f"residual {st.residual} vs recomputed {own}")
        return d

    def _converge(self, case, solver, results):
        def op():
            if solver == "T":
                st, hist = bl.t_iterate(case.basis, case.grid, case.H0, tol=1e-10, max_iter=200)
                self.t_steps += len(hist) - 1
            else:
                st, hist = bl.lm_minimize(case.basis, case.grid, case.H0, tol=1e-10, max_iter=100)
            check(st.flag == "converged", f"{solver} flag {st.flag}")
            d = self._state_checks(case, st)
            check(st.residual < 1e-10, f"residual {st.residual}")
            if case.rank == 1:
                gap = orc.log_eig_second_difference(st.H)
                check(gap <= 1e-6, f"log-eigenvalues not equally spaced ({gap:.2e})")
            results[solver] = st.H
            if len(results) == 2:
                gap = float(np.linalg.norm(results["T"] - results["LM"]))
                check(gap < 1e-6, f"T and LM disagree by {gap:.2e}")
            return d
        return op

    def _diverge(self, solver):
        case = self.unstable

        def op():
            if solver == "T":
                st, hist = bl.t_iterate(case.basis, case.grid, case.H0, tol=1e-10, max_iter=300)
                self.t_steps += len(hist) - 1
            else:
                st, hist = bl.lm_minimize(case.basis, case.grid, case.H0, tol=1e-10, max_iter=200)
            check(st.flag == "diverged" and st.spread_ratio > 1e3,
                  f"{solver} flag {st.flag}, spread ratio {st.spread_ratio:.2e}")
            check(bl.divergence_detect(hist) == "unstable-like", "not classified unstable-like")
            slope = bl.iterate_slope(hist, self.weight_range)
            d = require_digits(slope, self.iterate_slope, 6, "iterate-path slope")
            return min(d, self._state_checks(case, st))
        return op

    def round(self, ops: Ops) -> dict:
        self.t_steps = 0
        for case in self.stable:
            results = {}
            ops.run(f"T {case.label}", self._converge(case, "T", results))
            ops.run(f"LM {case.label}", self._converge(case, "LM", results))
        ops.run("T diverges O(0)+O(2)", self._diverge("T"))
        ops.run("LM diverges O(0)+O(2)", self._diverge("LM"))
        return {"m1_rate": 0, "t_operator": self.t_steps}


# ---------------------------------------------------------------------------
# level_sweep: criterion 3 at many levels


class LevelSweep:
    """M2 along the two-step 1-PS of O(0)+O(2) with weights
    ((k+1)/(k+3), -1) at levels 3..36 on the default grid; N = 2k+4 up
    to 76.  k = 36 is the highest level whose chart values stay finite."""

    CALIBRATION = "numeric"

    LEVELS = (3, 6, 10, 15, 22, 36)
    SAMPLES = 6

    def __init__(self, rng: np.random.Generator):
        self.grid = qd.build_grid_p1()
        self.levels = []
        for k in self.LEVELS:
            basis = bd.section_basis(bd.split(0, 2), k)
            w = orc.two_step_weights(k + 3, k + 1)
            ps = bg.two_step_one_ps(basis, [1], tuple(float(x) for x in w))
            ts = np.sort(rng.uniform(1.25, 15.0, self.SAMPLES))
            self.levels.append((k, basis, ps, w, _split_filtration([2], [0, 2], k, w), ts))
        k, basis, ps, w, filt, _ = self.levels[0]
        don.m2_along_path(basis, _tiny_grid(), ps, [1.0])
        don.asymptotic_slope_fit(np.arange(5.0), np.arange(5.0), t_min=0.0)
        xs.m2_slope_prediction(filt)

    def _level(self, k, basis, ps, w, filt, ts):
        def op():
            m2 = don.m2_along_path(basis, self.grid, ps, ts)
            worst = orc.DIGITS_CAP
            for t, v in zip(ts, m2):
                worst = min(worst, require_digits(
                    v, orc.m2_block_path(float(t), w, (1, 1)), 6, f"M2({t:.3f}) at k={k}"))
            exact = 2 * (w[0] + w[1])
            pred = xs.m2_slope_prediction(filt)
            check(pred == exact, f"m2_slope_prediction {pred} != {exact} at k={k}")
            fit = don.asymptotic_slope_fit(ts, m2, t_min=0.0, predicted=pred)
            return min(worst, require_digits(fit.slope, exact, 6, f"M2 slope at k={k}"))
        return op

    def round(self, ops: Ops) -> dict:
        for level in self.levels:
            ops.run(f"level {level[0]}", self._level(*level))
        return {"m1_rate": 0, "t_operator": 0}


# ---------------------------------------------------------------------------
# pointwise_identities: criteria 1, 5 and 6, scaled up


def _random_filtration(rng: np.random.Generator):
    """A random weighted filtration of a split bundle by initial partial
    sums, with trace-free rational weights; returns (spec, weights, graded
    ranks)."""
    while True:
        n = int(rng.integers(1, 5))
        degrees = [int(d) for d in rng.integers(-2, 5, n)]
        nu = int(rng.integers(1, min(n, 3) + 1))
        ranks = sorted(int(r) for r in rng.integers(1, n + 1, nu - 1)) + [n]
        k = max(-d for d in degrees) + int(rng.integers(0, 3))
        h0 = sum(max(d + k + 1, 0) for d in degrees)
        if h0 <= nu:
            continue
        if nu == 1:
            v_dims, weights = [h0], [Fraction(0)]
        else:
            v_dims = sorted(int(v) for v in rng.choice(np.arange(1, h0), nu - 1, replace=False))
            v_dims.append(h0)
            mult = [v_dims[0]] + [b - a for a, b in zip(v_dims, v_dims[1:])]
            lead = sorted({Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 5)))
                           for _ in range(nu - 1)}, reverse=True)
            if len(lead) != nu - 1:
                continue
            last = -sum(w * m for w, m in zip(lead, mult)) / mult[-1]
            if last >= lead[-1]:
                continue
            weights = lead + [last]
            top = max(abs(w) for w in weights)
            weights = [w / top for w in weights]
        spec = xs.FiltrationSpec(
            weights=tuple(weights), steps=tuple(xs.split_p1(degrees[:r]) for r in ranks),
            v_dims=tuple(v_dims), ambient=xs.split_p1(degrees), level=k,
        )
        graded = [ranks[0]] + [b - a for a, b in zip(ranks, ranks[1:])]
        return spec, weights, graded


def _random_two_step(rng: np.random.Generator):
    """A two-step filtration O(a_1..a_s) < O(a_1..a_n) one level above the
    regularity, with its m_na from the closed form."""
    n = int(rng.integers(2, 5))
    degrees = [int(d) for d in rng.integers(-2, 5, n)]
    s = int(rng.integers(1, n))
    k = max(-d for d in degrees) + 1
    v1 = sum(d + k + 1 for d in degrees[:s])
    v2 = sum(d + k + 1 for d in degrees)
    w = orc.two_step_weights(v1, v2 - v1)
    closed = orc.m_na_two_step(*w, s, sum(degrees[:s]), n, sum(degrees))
    return _split_filtration(degrees[:s], degrees, k, w), closed


class PointwiseIdentities:
    """Exact weight-sum identities and two-step m_na closed forms, the
    subgeodesic identity at criterion 5's 200 draws and the commutation
    identity at random (generator, t, x)."""

    CALIBRATION = "python"

    N_WEIGHT_SUM = 1000
    N_TWO_STEP = 400
    N_SUBGEODESIC = 200
    N_COMMUTATOR = 1500

    def __init__(self, rng: np.random.Generator):
        catalog = [((0,), 1), ((2,), 1), ((0, 2), 3), ((1, 1), 2)]
        bases = [(bd.section_basis(bd.split(*d), k), d, k) for d, k in catalog]
        self.weight_sums = [_random_filtration(rng) for _ in range(self.N_WEIGHT_SUM)]
        self.two_steps = [_random_two_step(rng) for _ in range(self.N_TWO_STEP)]
        # The subgeodesic draws are criterion 5's own (generator seed 5), not
        # seeded: subgeodesic_residual raises StepTooLarge on about one
        # random draw in 10^4 (see FOUND in CHANGES.md), which would make the
        # failed share depend on --seed.
        fixed = np.random.default_rng(5)
        self.subgeodesic = []
        for i in range(self.N_SUBGEODESIC):
            basis, degrees, k = bases[i % len(bases)]
            ps = bg.random_two_weight_ps(basis.dimension, fixed)
            t = float(fixed.uniform(0.1, 3.0))
            x = complex(fixed.normal(), fixed.normal())
            self.subgeodesic.append((basis, ps, t, x, orc.split_q(degrees, k, [x])[0]))
        split_cases = [(bases[2][0], [1]), (bases[3][0], [0])]
        line_bases = [bases[0][0], bases[1][0]]
        self.commutator = []
        for i in range(self.N_COMMUTATOR):
            if i % 3 == 0:
                basis, sub = split_cases[i % 2]
                n1 = sum(basis.data[c][1].size for c in sub)
                w = orc.two_step_weights(n1, basis.dimension - n1)
                ps = bg.two_step_one_ps(basis, sub, tuple(float(x) for x in w))
            else:
                basis = line_bases[i % 2]
                ps = bg.random_two_weight_ps(basis.dimension, rng)
            self.commutator.append(
                (basis, ps, float(rng.uniform(0.1, 2.0)), complex(rng.normal(), rng.normal())))

        spec, _, _ = self.weight_sums[0]
        xs.weight_sum_identity(spec)
        xs.m_na(self.two_steps[0][0])
        bg.subgeodesic_residual(*self.subgeodesic[0][:4])
        bg.commutator_residual(*self.commutator[0])

    def _weight_sums(self):
        for spec, weights, graded in self.weight_sums:
            lhs, rhs = xs.weight_sum_identity(spec)
            exact = orc.weight_sum(weights, graded)
            check(lhs == exact and rhs == 2 * exact,
                  f"weight sums ({lhs}, {rhs}) vs ({exact}, {2 * exact})")

    def _two_steps(self):
        for spec, closed in self.two_steps:
            got = xs.m_na(spec)
            check(got == closed, f"m_na {got} vs closed form {closed}")

    def _subgeodesic(self, basis, ps, t, x, q_x):
        def op():
            lhs, rhs, _, _ = bg.subgeodesic_residual(basis, ps, t, x)
            size = float(np.linalg.norm(rhs))
            check(np.linalg.norm(rhs - rhs.conj().T) <= 1e-12 * (1.0 + size), "F*F not hermitian")
            low = float(np.linalg.eigvalsh(0.5 * (rhs + rhs.conj().T)).min())
            check(low >= -1e-12 * (1.0 + size), f"F*F has eigenvalue {low:.2e}")
            check(np.linalg.norm(lhs - rhs) <= 1e-5 * (1.0 + size), "d/dt(h^-1 dh/dt) != F*F")
            own = orc.subgeodesic_rhs(q_x, ps.generator, t)
            err = float(np.linalg.norm(rhs - own))
            return require_digits(err, 0.0, 8, "F*F vs closed form", scale=max(size, 1e-300))
        return op

    def _commutator(self, basis, ps, t, x):
        def op():
            res = bg.commutator_residual(basis, ps, t, x)
            return require_digits(res, 0.0, 10, "normalized commutator", scale=1.0)
        return op

    def round(self, ops: Ops) -> dict:
        ops.run("weight-sum identities", self._weight_sums)
        ops.run("two-step m_na closed forms", self._two_steps)
        for draw in self.subgeodesic:
            ops.run("subgeodesic", self._subgeodesic(*draw))
        for draw in self.commutator:
            ops.run("commutator", self._commutator(*draw))
        return {"m1_rate": 0, "t_operator": 0}


WORKLOADS = {
    "energy_path": EnergyPath,
    "balance_flow": BalanceFlow,
    "level_sweep": LevelSweep,
    "pointwise_identities": PointwiseIdentities,
}
