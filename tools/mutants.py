"""Mutation check: does tier-1 or `bml verify` catch each bug of a list?

    python3 tools/mutants.py [NAME ...]

Run from the repository root.  Each mutant is one edit (file, old text,
new text) whose old text must occur exactly once in the file.  Per
mutant, the repository (without .git and caches) is copied to a
temporary directory, the edit is applied there, and `bml verify` and
tier-1 (`python -m pytest`, stopping at the first failure) run in the
copy with one BLAS thread.  Tier-1 there leaves out tests/test_mutants.py,
which checks that each old text is present and so fails in every
mutated copy by construction.  A mutant that both pass *survives*: no
check sees that bug.  The script prints one line per mutant, lists the
survivors and exits with status 1 if there are any.  Tier-1 does not run
it (about 25 s per mutant); a survivor calls for a new test, never for a
looser bound.  NAME arguments select mutants by name.  EQUIVALENT lists
the edits found to change no result, each with its reason; they are not
run.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 900

# (name, file, old text, new text)
MUTANTS = (
    ("whiten-identity", "src/bml/kernels.py",
     "        w[i, i] = 1.0 / l[i, i]\n    return w, l\n",
     "        w[i, i] = 1.0 / l[i, i]\n"
     "    return np.eye(len(w)).reshape(w.shape[:2] + (1,) * (w.ndim - 2)) + 0 * w, l\n"),
    ("curvature-columns-for-any-form", "src/bml/donaldson.py",
     'if _diagonal_frame(form.matrix) and basis.bundle.kind == "split_p1":',
     'if basis.bundle.kind == "split_p1":'),
    ("left-panels-ungraded", "src/bml/quadrature.py",
     "left = [2.0 ** (-j) for j in range(depth, 1, -1)]",
     "left = [0.5 * i / depth for i in range(1, depth)]"),
    ("orbit-ring-doubled", "src/bml/quadrature.py",
     'QuadratureGrid(space_tag="P1", nodes=z, weights=w, ring=n_angular)',
     'QuadratureGrid(space_tag="P1", nodes=z, weights=w, ring=2 * n_angular)'),
    ("quotient-index-not-mapped", "src/bml/quadrature.py",
     "return i if self.parent is None else int(self.parent[i])",
     "return i"),
    ("orbit-weights-not-summed", "src/bml/quadrature.py",
     "weights=np.add.reduceat(self.weights, starts),",
     "weights=self.weights[starts],"),
    ("pair-without-conj", "src/bml/kernels.py",
     "    xc = x.conj()\n",
     "    xc = x\n"),
    ("curvature-fs-sign", "src/bml/donaldson.py",
     "        k[i, i] -= fs\n",
     "        k[i, i] += fs\n"),
    ("p-root-transposed-w", "src/bml/kernels.py",
     "mul(q, ct(w))",
     "mul(q, w.conj())"),
    ("commutator-unshifted", "src/bml/bergman.py",
     "np.exp((ps.eigenvalues - ps.weights[0]) * t)",
     "np.exp(ps.eigenvalues * t)"),
    ("kind-reads-every-field", "src/bml/config.py",
     'if key not in ("kind", "out", *EXPERIMENT_KINDS[kind]):',
     "if False:"),
    ("form-finiteness-unchecked", "src/bml/bergman.py",
     "        if not np.isfinite(m).all():\n"
     "            raise NotPositiveDefinite(\"form has non-finite entries\")\n",
     ""),
    ("pinch-coefficient-constant", "src/bml/balance.py",
     "    return float((delta - 1.0 - ld) / ld**2)\n",
     "    return 0.5\n"),
    ("le-potier-tie-positive", "src/bml/exactsheaf.py",
     "return (diff > 0) - (diff < 0)",
     "return (diff >= 0) - (diff < 0)"),
    ("slope-tie-smaller-rank", "src/bml/exactsheaf.py",
     "key=lambda c: (mu(c), c.rank)",
     "key=lambda c: (mu(c), -c.rank)"),
    ("divergence-ignores-m2", "src/bml/balance.py",
     "    return _m2_decreasing([row.m2 for row in history[-(M2_DECREASE_RUN + 1):]])\n",
     "    return True\n"),
    ("m2-decrease-no-net-drop", "src/bml/balance.py",
     "    return ties_ok and (m2[0] - m2[-1]) > 1e-8\n",
     "    return ties_ok\n"),
    ("delta-max", "src/bml/balance.py",
     "delta = float((lam[:, 0] / lam[:, -1]).min())",
     "delta = float((lam[:, 0] / lam[:, -1]).max())"),
    ("t-map-half-damped", "src/bml/balance.py",
     "evaluate(*t_operator(basis, x.b))",
     "evaluate(_det_normalize(0.5 * (x.H + t_operator(basis, x.b)[0])))"),
    ("t-map-conjugated", "src/bml/balance.py",
     "    out = (v * mu) @ v.conj().T\n",
     "    out = ((v * mu) @ v.conj().T).T\n"),
    ("t-step-sqrt-of-b", "src/bml/balance.py",
     "    return out, (mu, v)\n",
     "    return out, (lam, v)\n"),
    ("t-map-singular-at-zero", "src/bml/balance.py",
     "if lam.min() <= 1e-300:",
     "if lam.min() < 0:"),
    ("column-route-no-top-shift", "src/bml/balance.py",
     "        top = np.maximum.reduceat(logh, starts)\n",
     "        top = 0.0 * np.maximum.reduceat(logh, starts)\n"),
    ("lm-memory-no-ring-pairs", "src/bml/balance.py",
     "    pairs = n * n * m // grid.ring if _ring_start(basis, grid) else 0\n",
     "    pairs = 0\n"),
    ("t-map-columns-unnormalized", "src/bml/balance.py",
     "return _det_normalize((r / n) / b)",
     "return (r / n) / b"),
    ("balance-columns-fallback-ascends", "src/bml/balance.py",
     "zeta = -(mass - mass.mean())",
     "zeta = mass - mass.mean()"),
    ("balance-columns-any-start", "src/bml/balance.py",
     "return grid.ring > 1 and not (H0 - np.diag(H0.diagonal())).any()",
     "return grid.ring > 1"),
    ("balance-columns-any-grid", "src/bml/balance.py",
     "return grid.ring > 1 and not (H0 - np.diag(H0.diagonal())).any()",
     "return not (H0 - np.diag(H0.diagonal())).any()"),
    ("balance-columns-softmax-wrong-column", "src/bml/balance.py",
     "p = e / hc[col]",
     "p = e / hc[col[::-1]]"),
    ("stack-fold-wrong-axis", "src/bml/quadrature.py",
     "np.add.reduce(values * self.weights, axis=-1)",
     "np.add.reduce(values * self.weights, axis=0)"),
    ("m2-columns-no-top-shift", "src/bml/donaldson.py",
     "np.exp(np.outer(times, 2.0 * (lam[s] - top))) @ rho[s] for s, top in zip(rows, tops)])",
     "np.exp(np.outer(times, 2.0 * lam[s])) @ rho[s] for s, top in zip(rows, tops)])\n"
     "        tops = [0.0] * len(tops)"),
    ("columns-wrong-column", "src/bml/kernels.py",
     "rho[s] = q[s, c].real ** 2 + q[s, c].imag ** 2",
     "rho[s] = q[s, 0].real ** 2 + q[s, 0].imag ** 2"),
    ("columns-finite-unchecked", "src/bml/kernels.py",
     "    return finite(rho, grid), rows\n",
     "    return rho, rows\n"),
    ("ring-gather-frequency-sign", "src/bml/kernels.py",
     "b[pad] = y.view(complex)[..., 0]",
     "b[pad] = y.view(complex)[..., 0].conj()"),
    ("ring-b-not-symmetrized", "src/bml/kernels.py",
     "        return 0.5 * (b + b.conj().T), _logdet(l), wh\n\n    return b_matrix\n",
     "        return b, _logdet(l), wh\n\n    return b_matrix\n"),
    ("ring-table-sin-sign", "src/bml/kernels.py",
     "weight * np.cos(angle), -weight * np.sin(angle)",
     "weight * np.cos(angle), weight * np.sin(angle)"),
    ("ring-table-weight-one", "src/bml/kernels.py",
     "np.where(d != 0, 2.0, 1.0)",
     "np.where(d != 0, 1.0, 1.0)"),
    ("ring-route-any-rank", "src/bml/balance.py",
     "return basis.rank == 1 and grid.ring > 1",
     "return grid.ring > 1"),
    ("balance-fallback-second-frame", "src/bml/balance.py",
     "x.sq @ _expm_herm(0.5**halving * zeta) @ x.sq)",
     "_expm_herm(0.5**halving * zeta / 2) @ x.H @ _expm_herm(0.5**halving * zeta / 2))"),
    ("p-coordinates-no-sqrt2", "src/bml/kernels.py",
     "np.sqrt(2.0) * y.conj()",
     "y.conj()"),
    ("b-derivatives-one-block", "src/bml/balance.py",
     "for start in range(0, len(w), kernels.BLOCK):",
     "for start in range(0, len(w), kernels.BLOCK)[:1]:"),
    ("m1-columns-no-top-shift", "src/bml/donaldson.py",
     "    for s, _, shift, d in cols.runs:\n        w = np.exp(shift * t)[:, None] * cols.held[s]\n",
     "    for s, top, shift, d in cols.runs:\n        w = np.exp((shift + 2.0 * top) * t)[:, None] * cols.held[s]\n"),
    ("m1-columns-characters-off-by-one", "src/bml/donaldson.py",
     "np.subtract.outer(m[s], m[s])",
     "np.subtract.outer(m[s], m[s] + 1)"),
    ("form-energy-end-at-one", "src/bml/donaldson.py",
     "    t = [max(1.0, float(np.abs(logs).max()))]\n",
     "    t = [1.0]\n"),
    ("form-energy-no-mu", "src/bml/donaldson.py",
     "m1_curve(basis, grid, ps, t)[0] + mu * m2_along_path(basis, grid, ps, t)[0]",
     "m1_curve(basis, grid, ps, t)[0]"),
)

# (name, file, old text, new text, why no check can see it)
EQUIVALENT = ()

ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
       "PYTHONDONTWRITEBYTECODE": "1"}


def apply(copy: Path, file: str, old: str, new: str) -> None:
    path = copy / file
    text = path.read_text()
    if text.count(old) != 1:
        raise SystemExit(f"{file}: the old text occurs {text.count(old)} times, not once:\n{old}")
    path.write_text(text.replace(old, new))


def first_failure(output: str) -> str:
    for line in output.splitlines():
        if line.startswith(("FAILED", "ERROR")):
            return line
    return output.strip().splitlines()[-1] if output.strip() else "no output"


def run(copy: Path) -> str | None:
    """What kills the mutant in ``copy``, or None if it survives."""
    env = {**os.environ, **ENV, "PYTHONPATH": str(copy / "src")}
    verify = subprocess.run(
        [sys.executable, "-m", "bml.cli", "verify", "--out", str(copy / "verify-out")],
        cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    if verify.returncode != 0:
        failed = [line for line in verify.stdout.splitlines() if "[FAIL]" in line]
        return "bml verify: " + (failed[0] if failed else first_failure(verify.stdout + verify.stderr))
    tests = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", "--ignore=tests/test_mutants.py"],
        cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    if tests.returncode != 0:
        return "tier-1: " + first_failure(tests.stdout)
    return None


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or m[0] in argv]
    unknown = set(argv) - {m[0] for m in MUTANTS}
    if unknown:
        raise SystemExit(f"unknown mutants: {sorted(unknown)}")
    survivors = []
    for name, file, old, new in chosen:
        with tempfile.TemporaryDirectory(prefix="bml-mutant-") as tmp:
            copy = Path(tmp) / "repo"
            shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
                ".git", "__pycache__", ".pytest_cache", ".hypothesis", "verify.json"))
            apply(copy, file, old, new)
            killed = run(copy)
        print(f"{name}: {'SURVIVED' if killed is None else 'killed by ' + killed}", flush=True)
        if killed is None:
            survivors.append(name)
    print(f"survivors: {', '.join(survivors) if survivors else 'none'}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
