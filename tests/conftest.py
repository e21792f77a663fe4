"""Fixtures shared across test modules."""

import numpy as np
import pytest

from etagap import bounds


@pytest.fixture
def every_conclusion_fails(monkeypatch):
    """Make every Lemma 3.1 row whose hypothesis holds a counterexample."""
    check_rows = bounds._lemma31_rows

    def failing(mu, r, m1):
        hyp, _ = check_rows(mu, r, m1)
        return hyp, np.zeros_like(hyp)

    monkeypatch.setattr(bounds, "_lemma31_rows", failing)


def sides(row, claim):
    """(lhs, rhs) of the named claim of a ``bounds.VerdictRow``."""
    return next((lhs, rhs) for name, lhs, rhs in row.claims if name == claim)
