"""Replica snapshot shipping: hot-swap a serving index from newer archives.

The deployment shape this supports: one writer process owns the
authoritative index (absorbing ``add``/``delete``/``compact``) and
periodically ``save()``s it; reader processes each hold a
:class:`Replica` and poll :meth:`Replica.refresh` against the snapshot
path.  ``save()`` stamps every archive with the index's monotonically
increasing epoch and replaces the file atomically, so a refresh opens
the archive once (:func:`repro.persistence.open_snapshot`): a cheap peek
at the stored epoch, then — only when the snapshot is genuinely newer —
the zero-rebuild restore and an atomic swap of the served object.

Attached to an :class:`~repro.serving.server.AsyncSearchServer`, the
swap goes through :meth:`~repro.serving.server.AsyncSearchServer.swap_index`,
which drains pending batches and invalidates the projected-query cache
first, so no request ever sees a half-switched index.
"""

from __future__ import annotations

from typing import Optional


class Replica:
    """A serving-side handle that follows an index snapshot file.

    ``refresh(path)`` loads the archive at *path* only when its stored
    epoch is newer than the replica's current one, so polling it in a
    loop costs one metadata read per tick.  ``server`` (optional) is an
    :class:`~repro.serving.server.AsyncSearchServer` whose index is
    hot-swapped on every successful refresh.
    """

    def __init__(self, server: Optional[object] = None) -> None:
        self.index = None
        self.epoch = -1
        self.path: Optional[str] = None
        self.refreshes = 0
        self.server = server

    def refresh(self, path: str) -> bool:
        """Adopt the snapshot at *path* if it is newer; returns whether it was.

        "Newer" means the archive's stored epoch strictly exceeds the
        epoch of the replica's current index — re-shipping an old or
        identical snapshot is a no-op, so the swap order is monotonic no
        matter how snapshots arrive.  An archive that cannot be restored
        raises :class:`~repro.persistence.SnapshotError` and changes
        nothing: the replica (and its server) keep serving what they had.
        """
        from repro.persistence import open_snapshot

        with open_snapshot(path) as (header, load):
            if self.index is not None and header["epoch"] <= self.epoch:
                return False
            index = load()
        self.index = index
        self.epoch = int(self.index.epoch)
        self.path = str(path)
        self.refreshes += 1
        self._metrics_registry().counter(
            "replica_refreshes", "Snapshot archives adopted by a replica"
        ).inc()
        if self.server is not None:
            self.server.swap_index(self.index)
        return True

    def _metrics_registry(self):
        """The server's registry when attached, else the process default."""
        from repro.obs.metrics import default_registry

        if self.server is not None and hasattr(self.server, "metrics_registry"):
            return self.server.metrics_registry
        return default_registry()

    def __repr__(self) -> str:
        if self.index is None:
            return "Replica(empty)"
        return f"Replica(epoch={self.epoch}, index={self.index!r})"
