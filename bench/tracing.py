"""Per-layer call counts and self times, measured from outside `bml`.

Each traced function is replaced by a timing wrapper in *every* loaded
`bml` module namespace that bound it (``balance``, ``bergman`` and
``donaldson`` import ``q_field`` by name), and on its class for methods.
A wrapper's self time is its span minus the spans of the wrapped calls
nested inside it.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

TRACED = (
    "quadrature.QuadratureGrid.integrate",
    "bundles.q_field",
    "bundles.dq_dz_field",
    "bundles.h_ref_field",
    "bergman.OnePS.form_at",
    "bergman.fs_metric",
    "bergman.subgeodesic_residual",
    "bergman.commutator_residual",
    "donaldson.m2_along_path",
    "donaldson.m1_rate",
    "donaldson.curvature_field",
    "donaldson.asymptotic_slope_fit",
    "balance.t_iterate",
    "balance.t_operator",
    "balance.center_of_mass",
    "balance.m2_value",
    "balance.lm_minimize",
    "exactsheaf.m_na",
    "exactsheaf.weight_sum_identity",
    "exactsheaf.m2_slope_prediction",
)

# Work counted from a traced function's result.
EXTRA = {
    "bundles.q_field": ("entries", lambda out: out.size),  # M * N * r
    "balance.t_iterate": ("iterations", lambda out: len(out[1])),
    "balance.lm_minimize": ("iterations", lambda out: len(out[1])),
}

COUNTS = tuple(f"{name}.calls" for name in TRACED) + tuple(
    f"{name}.{extra}" for name, (extra, _) in EXTRA.items())


class Tracer:
    def __init__(self):
        self.counts = Counter()
        self.self_s = Counter()
        self._stack = []

    def _wrap(self, name: str, fn):
        extra = EXTRA.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._stack.append(0.0)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span = time.perf_counter() - start
                nested = self._stack.pop()
                if self._stack:
                    self._stack[-1] += span
                self.self_s[name] += span - nested
                self.counts[f"{name}.calls"] += 1
            if extra is not None:
                self.counts[f"{name}.{extra[0]}"] += extra[1](out)
            return out

        return traced

    def install(self, namespaces=()) -> None:
        """Wrap every traced function where it is bound: its class, or
        each module among ``bml.*`` and ``namespaces`` that holds it."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "bml" or key.startswith("bml."))]
        modules += list(namespaces)
        for name in TRACED:
            module_name, *path = name.split(".")
            module = sys.modules[f"bml.{module_name}"]
            if len(path) == 2:
                cls = getattr(module, path[0])
                setattr(cls, path[1], self._wrap(name, cls.__dict__[path[1]]))
                continue
            original = getattr(module, path[0])
            wrapped = self._wrap(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)
            left = [m.__name__ for m in modules
                    if any(v is original for v in vars(m).values())]
            if left:
                raise RuntimeError(f"{name} still unwrapped in {left}")

    def snapshot(self):
        return Counter(self.counts), Counter(self.self_s)
