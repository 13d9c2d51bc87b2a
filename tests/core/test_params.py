"""Validation tests for PMLSHParams."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.params import PMLSHParams, hash_count_for


def test_defaults_match_paper():
    """§6.1's values, except m: ``fit`` picks it by the size rule, which
    gives the paper's 15 up to 45k points and 19 from 68k."""
    params = PMLSHParams()
    assert params.m is None
    assert hash_count_for(25_000, params) == 15
    assert hash_count_for(100_000, params) == 19
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
