"""Deterministic CSV/JSON report emission.

CSV tables use a fixed column order and repr-exact floats, JSON summaries
sorted keys and "p/q" Fractions; both are byte-identical across reruns
with the same seed (no artifact carries wall-clock data).
"""

from __future__ import annotations

import csv
import json
import os
from fractions import Fraction

from .exactsheaf import frac_str

SLOPE_COLUMNS = ("t", "M1", "M2", "MDon", "pred_num", "pred_den")
BALANCE_COLUMNS = ("iter", "residual", "m2", "spread")


def _ensure_dir(path: str) -> None:
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, Fraction):
        return frac_str(value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(path: str, header, rows) -> None:
    """Header-first CSV with deterministic cell formatting; an empty row
    iterable yields a header-only file."""
    _ensure_dir(path)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(v) for v in row])


def _jsonable(obj):
    if isinstance(obj, Fraction):
        return frac_str(obj)
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if hasattr(obj, "item"):  # numpy scalars
        return obj.item()
    return obj


def write_json(path: str, obj) -> None:
    data = _jsonable(obj)
    _ensure_dir(path)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def slope_rows(ts, m2, prediction: Fraction, m1=None, mdon=None):
    """Assemble rows for the slope-experiment table; absent series leave
    blank cells, the exact predicted slope repeats as p/q columns."""
    for i in range(len(ts)):
        yield (
            float(ts[i]),
            None if m1 is None else float(m1[i]),
            float(m2[i]),
            None if mdon is None else float(mdon[i]),
            prediction.numerator,
            prediction.denominator,
        )


def balance_rows(history):
    for row in history:
        yield (row.iteration, row.residual, row.m2, row.spread)
