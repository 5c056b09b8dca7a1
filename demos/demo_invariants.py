"""Exact stability invariants of the catalog pair O(0)+O(2) on P^1.

The O(2) summand has slope 2 > 1 = mu(E), so the two-step filtration it
defines destabilizes the bundle.  Everything printed here is computed in
exact rational arithmetic.
"""

from fractions import Fraction

from bml import exactsheaf as xs


def main():
    k = 3
    filt = xs.two_step_filtration([2], [0, 2], k, (Fraction(2, 3), Fraction(-1)))
    sub, ambient = filt.steps
    print(f"bundle: {ambient.label}, sub: {sub.label}, level k = {k}")
    print(f"mu(E) = {xs.mu(ambient)},  mu(F) = {xs.mu(sub)}")
    grading = xs.weight_grading(filt)
    print(f"weights {tuple(map(str, filt.weights))}  ->  j = {grading.j}, "
          f"integer weights {grading.integer_weights}")
    print(f"M^NA  = {xs.m_na(filt)}   (negative: the path destabilizes)")
    print(f"J^NA  = {xs.j_na(grading, filt.weights)}")
    print(f"predicted log-det slope = {xs.m2_slope_prediction(filt)}")
    lhs, rhs = xs.weight_sum_identity(filt)
    print(f"weight-sum identity: sum w_i rk(gr_i) = {lhs}, brute-force slope = {rhs} "
          f"(= 2x, exactly)")
    verdict, witness = xs.slope_stability_verdict(ambient, [sub, xs.split_p1((0,))])
    print(f"slope verdict: {verdict} (witness {witness.label})")


if __name__ == "__main__":
    main()
