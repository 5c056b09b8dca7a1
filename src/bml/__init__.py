"""Balanced-metric laboratory for holomorphic bundles on P^1 and P^2.

Modules
-------
exactsheaf   exact rational sheaf bookkeeping and filtration invariants
quadrature   graded quadrature grids on P^1 and P^2
bundles      deterministic section bases of twisted bundles
kernels      the evaluation core: one chart per call, GEMM sandwiches, log-dets, B(H)
bergman      Fubini-Study metrics and one-parameter Bergman degenerations
donaldson    energy functionals and asymptotic slope fits
balance      balanced-metric solvers, divergence detection, pinch diagnostics
config       experiment configuration with exact round-trip serialization
reporting    deterministic CSV/JSON emission
acceptance   end-to-end acceptance checks
cli          command-line entry point (``bml``)
"""
