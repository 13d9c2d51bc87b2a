"""The kernel set: surface, call counters, obs export.

There is one kernel implementation and nothing to select, so what is
left to pin is that ``kernels.active()`` exposes exactly the
``KERNEL_NAMES`` surface over :mod:`repro.kernels.fast`, that every call
through it is counted per ``(backend, kernel)``, and that the surface the
frozen benchmark reads (``name``, ``numba_available``) stays put.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import kernels
from repro.kernels import fast
from tests.oracles import kernels_reference, reference_kernels


class TestSurface:
    def test_one_kernel_set_named_fast(self):
        assert kernels.active() is kernels.active()
        assert kernels.active().name == "fast"
        assert kernels.numba_available() is False

    def test_every_kernel_name_wraps_the_module_function(self):
        kernel_set = kernels.active()
        for name in kernels.KERNEL_NAMES:
            assert getattr(kernel_set, name).__wrapped__ is getattr(fast, name)

    def test_oracle_covers_the_same_surface(self):
        for name in kernels.KERNEL_NAMES:
            assert callable(getattr(kernels_reference, name))

    def test_nothing_selects_a_backend(self):
        for gone in ("set_backend", "use_backend", "available_backends"):
            assert not hasattr(kernels, gone)
        assert not hasattr(kernels.active(), "supports_admission")
        for module in ("repro.kernels.reference", "repro.kernels._numba"):
            with pytest.raises(ModuleNotFoundError):
                __import__(module)

    def test_reference_kernels_swap_is_scoped(self):
        kernel_set = kernels.active()
        before = kernel_set.leaf_prune
        with reference_kernels():
            assert kernel_set.leaf_prune is kernels_reference.leaf_prune
        assert kernel_set.leaf_prune is before


class TestCallCounters:
    def test_calls_are_counted_per_kernel(self):
        kernels.reset_kernel_calls()
        verify = kernels.active().verify_distances
        verify(
            np.eye(3),
            np.array([0, 2], dtype=np.int64),
            np.zeros((1, 3)),
            np.array([0, 0], dtype=np.int64),
        )
        verify(
            np.eye(3),
            np.array([1], dtype=np.int64),
            np.zeros((1, 3)),
            np.array([0], dtype=np.int64),
        )
        assert kernels.kernel_calls() == {("fast", "verify_distances"): 2}

    def test_reset_zeroes_counts(self):
        kernels.active().pair_distances(np.zeros((1, 2)), np.zeros((1, 2)))
        kernels.reset_kernel_calls()
        assert kernels.kernel_calls() == {}

    def test_obs_counter_exported(self):
        from repro.obs.metrics import default_registry

        kernels.active().pair_distances(np.zeros((1, 2)), np.zeros((1, 2)))
        instruments = default_registry().collect()
        assert any(
            instrument.name == "kernel_calls"
            and instrument.label_dict().get("kernel") == "pair_distances"
            for instrument in instruments
        )
