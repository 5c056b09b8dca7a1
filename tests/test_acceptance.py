"""One test per acceptance criterion; each prints a single pass/fail line."""

import os

import numpy as np
import pytest

from bml import acceptance as ac
from bml import kernels


def _report(res):
    print(ac.format_line(res))
    assert res.passed, res.detail


def test_criterion_01_exact_identity_suite():
    _report(ac.criterion_1())


def test_criterion_02_closed_form_energy():
    _report(ac.criterion_2())


def test_criterion_03_logdet_slope():
    _report(ac.criterion_3())


def test_criterion_04_combined_energy():
    _report(ac.criterion_4())


def test_criterion_05_subgeodesic_positivity():
    _report(ac.criterion_5())


def test_criterion_06_commutation():
    _report(ac.criterion_6())


def test_criterion_06_fails_without_the_whitening(monkeypatch):
    """W = I in place of h_ref^{-1/2} up to a unitary leaves the moment
    matrices of a rank-2 Haar-frame draw non-commuting, which criterion 6
    must see; the 1 x 1 and diagonal draws alone cannot."""
    def unwhitened(h):
        return np.broadcast_to(np.eye(len(h))[:, :, None], h.shape).astype(complex), kernels.cholesky(h)

    monkeypatch.setattr(kernels, "whiten", unwhitened)
    res = ac.criterion_6()
    assert not res.passed, res.detail
    assert "0.00e+00 over 1000 draws" in res.detail


def test_criterion_07_balanced_existence():
    _report(ac.criterion_7())


def test_criterion_08_convexity():
    _report(ac.criterion_8())


def test_criterion_09_pinch_inequality():
    _report(ac.criterion_9())


@pytest.mark.skipif(
    os.environ.get("BML_RUN_STRETCH") != "1",
    reason="long-running surface-grid check; set BML_RUN_STRETCH=1 to enable",
)
def test_criterion_10_stretch_surface_balance():
    _report(ac.criterion_10())


def test_criterion_registry_shape():
    assert len(ac.ALL) == 9
    skipped = ac.criterion_10()
    assert skipped.index == 10
    assert not skipped.gating
    assert "skipped" in skipped.detail or os.environ.get("BML_RUN_STRETCH") == "1"
