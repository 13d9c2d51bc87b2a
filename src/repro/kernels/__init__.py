"""The library's hot kernels: one implementation, call-counted.

The hottest inner loops — the Eq. 5 frontier masks and leaf distance
verification of :class:`~repro.pmtree.flat.FlatPMTree`, the pooled
candidate cuts and batched baseline verification — live in
:mod:`repro.kernels.fast` as small array-in/array-out functions
(``leaf_prune`` and ``sampled_project`` have no product caller; the
frozen end-to-end benchmark still lists them).  :func:`active` hands callers the one
kernel set; every call through it increments a per-``(backend, kernel)``
counter (:func:`kernel_calls`) that is also exported through the
observability registry as ``kernel_calls``.

The straight-line NumPy definitions these kernels must equal byte for
byte live under ``tests/oracles/`` — they are the differential contract
(``tests/kernels/``), not product code.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.kernels import fast

__all__ = [
    "KERNEL_NAMES",
    "KernelSet",
    "active",
    "kernel_calls",
    "numba_available",
    "reset_kernel_calls",
]

#: The kernel surface; each name is a function of :mod:`repro.kernels.fast`
#: and has a reference twin in ``tests/oracles/kernels_reference.py``.
KERNEL_NAMES: Tuple[str, ...] = (
    "leaf_prune",
    "inner_prune",
    "pair_distances",
    "verify_distances",
    "budget_cut",
    "group_topk",
    "sampled_project",
)

#: Per-(backend, kernel) call counts for this process.
_CALLS: Dict[Tuple[str, str], int] = {}


def _obs_counter(backend: str, kernel: str):
    """Lazily bind the ``kernel_calls`` counter in the default registry."""
    from repro.obs.metrics import default_registry

    return default_registry().counter(
        "kernel_calls",
        "Hot-kernel invocations dispatched by repro.kernels.",
        labels={"backend": backend, "kernel": kernel},
    )


def _counted(backend: str, kernel: str, fn):
    key = (backend, kernel)
    bound = []

    def wrapper(*args, **kwargs):
        _CALLS[key] = _CALLS.get(key, 0) + 1
        if not bound:
            try:
                bound.append(_obs_counter(backend, kernel))
            except Exception:
                bound.append(None)
        counter = bound[0]
        if counter is not None:
            counter.inc()
        return fn(*args, **kwargs)

    wrapper.__name__ = f"{backend}.{kernel}"
    wrapper.__doc__ = fn.__doc__
    wrapper.__wrapped__ = fn
    return wrapper


class KernelSet:
    """The kernel set: ``name`` plus one counted callable per kernel.

    Kernel attributes wrap :mod:`repro.kernels.fast`'s functions, so a
    call adds one dict increment per *batch-level* invocation — never
    per element.
    """

    name = "fast"

    def __init__(self) -> None:
        for kernel in KERNEL_NAMES:
            setattr(self, kernel, _counted(self.name, kernel, getattr(fast, kernel)))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"KernelSet({self.name!r})"


_KERNELS = KernelSet()


def active() -> KernelSet:
    """The process's kernel set."""
    return _KERNELS


def numba_available() -> bool:
    # Only caller: bench_e2e/worker.py::fingerprint (frozen).  No numba
    # code path exists any more.
    return False


def kernel_calls() -> Dict[Tuple[str, str], int]:
    """Snapshot of per-``(backend, kernel)`` call counts."""
    return dict(_CALLS)


def reset_kernel_calls() -> None:
    """Zero the in-module call counts (obs counters keep running)."""
    _CALLS.clear()
