"""Reference twins of the product's hot paths — test-only oracles.

``kernels_reference`` defines every :mod:`repro.kernels.fast` kernel the
obvious way; ``pointer_tree`` is the PM-tree as a node graph (its build,
breadth-first packing, recursive walks and per-entry cost model) and
``invariants`` checks a packed tree's structure; ``recursive_probe``
answers PM-LSH's three query types by per-query pointer-tree walks.  The
product ships one implementation and keeps no switch, so index-level
identity is checked by swapping the reference functions onto the kernel
set for the duration of a test.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro import kernels
from tests.oracles import kernels_reference


@contextmanager
def reference_kernels():
    """Route every kernel call to its reference twin (restored on exit)."""
    kernel_set = kernels.active()
    saved = {name: getattr(kernel_set, name) for name in kernels.KERNEL_NAMES}
    for name in kernels.KERNEL_NAMES:
        setattr(kernel_set, name, getattr(kernels_reference, name))
    try:
        yield
    finally:
        for name, fn in saved.items():
            setattr(kernel_set, name, fn)
