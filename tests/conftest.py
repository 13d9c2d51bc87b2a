"""Shared fixtures: small, seeded datasets reused across the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.datasets.synthetic import clustered_manifold, gaussian_mixture, uniform_hypercube

# Tier-1 replays the same draws on every run and every host: a red
# property test is the code's fault, reproducible from the printed blob.
# The nightly job explores freely (``--hypothesis-profile=explore``).
settings.register_profile("ci", derandomize=True, database=None, print_blob=True)
settings.register_profile("explore", print_blob=True)
settings.load_profile("ci")


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def small_gaussian() -> np.ndarray:
    """600 x 24 isotropic Gaussian points (the hard, unclustered case)."""
    return np.random.default_rng(1).normal(size=(600, 24))


@pytest.fixture(scope="session")
def small_clustered() -> np.ndarray:
    """800 x 32 clustered points (the regime real descriptor data lives in)."""
    return gaussian_mixture(800, 32, num_clusters=12, cluster_std=0.7, seed=2)


@pytest.fixture(scope="session")
def small_manifold() -> np.ndarray:
    """700 x 48 points on an 8-dim manifold with cluster structure."""
    return clustered_manifold(
        700, 48, intrinsic_dim=8, num_clusters=10, cluster_spread=4.0, seed=3
    )


@pytest.fixture(scope="session")
def tiny_uniform() -> np.ndarray:
    """200 x 8 uniform points for exhaustive brute-force cross-checks."""
    return uniform_hypercube(200, 8, seed=4)


@pytest.fixture(scope="session")
def projected_points() -> np.ndarray:
    """1,000 x 15 points shaped like a projected dataset (m = 15)."""
    return np.random.default_rng(5).normal(size=(1000, 15)) * 3.0
