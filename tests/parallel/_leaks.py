"""Shared-memory leak checks scoped to this test process.

Segment names carry the publisher's pid (``repro-shm-<pid>-<token>``)
and only the parent process publishes, so a leak by this suite is a
segment under its own pid.  Scanning every ``repro-shm-*`` entry instead
would fail two suites running on one host on each other's live
segments; ``tools/check_shm.py``, run after the whole suite, keeps that
host-wide scan.
"""

from __future__ import annotations

import os
from typing import Tuple

from repro.parallel.shm import SEGMENT_PREFIX, leaked_segments


def own_leaked_segments() -> Tuple[str, ...]:
    """The live segments this process published."""
    return leaked_segments(prefix=f"{SEGMENT_PREFIX}-{os.getpid()}-")
