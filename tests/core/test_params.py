"""Validation tests for PMLSHParams."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.params import PMLSHParams


def test_defaults_match_paper():
    params = PMLSHParams()
    assert params.m == 15
    assert params.num_pivots == 5
    assert params.c == 1.5
    assert params.alpha1 == pytest.approx(1 / np.e)
    assert params.beta_multiplier == 2.0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"m": 0},
        {"num_pivots": -1},
        {"c": 1.0},
        {"c": 0.5},
        {"alpha1": 0.0},
        {"alpha1": 1.0},
        {"beta_multiplier": 1.0},
        {"node_capacity": 2},
        {"radius_shrink": 0.0},
        {"radius_shrink": 1.5},
        {"pivot_method": "magic"},
        {"max_iterations": 0},
    ],
)
def test_invalid_rejected(kwargs):
    with pytest.raises(ValueError):
        PMLSHParams(**kwargs)


def test_frozen():
    params = PMLSHParams()
    with pytest.raises(AttributeError):
        params.m = 20


def test_custom_values_accepted():
    params = PMLSHParams(m=10, num_pivots=0, c=2.0, node_capacity=16,
                         pivot_method="variance", use_rings=False)
    assert params.m == 10
    assert params.num_pivots == 0
    assert not params.use_rings
