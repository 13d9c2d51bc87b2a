"""The snapshot protocol: one export, one restore, three transports.

A backend with state worth shipping implements ``state_arrays()`` /
``from_state_arrays()`` on :class:`~repro.baselines.base.ANNIndex`
(PM-LSH and the exact oracle do).  Everything that is not
backend-specific lives here: :func:`export_state` stamps that export with
the lifecycle state (registry name, :data:`FORMAT_VERSION`, epoch,
fit-time cardinality, tombstones) and :func:`restore_state` turns it back
into a built index that answers exactly like the exported one.  Shared
memory (:meth:`repro.parallel.pool.WorkerPool.publish`) ships that pair
as it is; the file transport — ``index.save(path)`` /
``repro.load_index(path)`` — writes it as one ``.npz`` archive,
atomically, and reads it back with every failure typed:

>>> import repro
>>> repro.create_index("pm-lsh", seed=0).fit(data).save("index.npz")  # doctest: +SKIP
>>> index = repro.load_index("index.npz")                             # doctest: +SKIP

Archives are forward-refusing, backward-tolerant: one stamped by a newer
library is refused instead of silently misread; older ones (no stamp, no
lifecycle keys) load as "no deletes, epoch 0".  ``docs/lifecycle.md``
has the contract.
"""

from __future__ import annotations

import json
import os
import secrets
import zipfile
import zlib
from contextlib import contextmanager, suppress
from typing import Any, Callable, Dict, Iterator, Mapping, Tuple

import numpy as np

from repro.lifecycle.tombstones import TombstoneSet
from repro.registry import get_index_class

#: Version stamp written into every archive.  Bump when the archive
#: layout changes in a way an older loader would silently misread.
#: Version 1 introduced the stamp itself plus the lifecycle state keys
#: (``index_epoch``, ``tombstone_ids``, ``fitted_n``); unstamped
#: archives are version 0 (pre-lifecycle) and stay loadable.
FORMAT_VERSION = 1

#: Archive entries that hold snapshot *state* rather than backend arrays.
_STATE_KEYS = ("registry_name", "format_version", "index_epoch", "fitted_n", "params_json")


class SnapshotError(ValueError):
    """A snapshot that cannot be restored: not an archive, truncated,
    corrupt, missing a required entry, or written by a newer library."""


def export_state(index) -> Tuple[Dict[str, np.ndarray], Dict[str, Any]]:
    """The stamped snapshot of a built *index*: ``(arrays, state)``.

    *arrays* are the backend's own (not copied — treat as read-only) plus
    ``tombstone_ids``; *state* is JSON: ``registry_name``,
    ``format_version``, ``epoch``, ``fitted_n`` and the backend's
    ``params``.  ``NotImplementedError`` for a backend without the protocol.
    """
    index._require_built()
    arrays, params = index.state_arrays()
    state = {
        "registry_name": type(index).registry_name,
        "format_version": FORMAT_VERSION,
        "epoch": index.epoch,
        "fitted_n": index.fitted_n,
        "params": params,
    }
    return {**arrays, "tombstone_ids": index.tombstones.ids()}, state


def restore_state(arrays: Mapping[str, np.ndarray], state: Mapping[str, Any]):
    """Rebuild the index :func:`export_state` described.

    *arrays* may be read-only views (a shared-memory segment); the
    restored index keeps them without copying.  Legacy input — no
    ``tombstone_ids``, a ``fitted_n`` of None — means "no deletes, fitted
    at the stored cardinality".
    """
    cls = get_index_class(state["registry_name"])
    try:
        index = cls.from_state_arrays(arrays, state["params"])
    except KeyError as error:
        raise SnapshotError(f"missing required array {error}") from error
    index._built = True
    index._index_epoch = int(state["epoch"])
    fitted_n = state["fitted_n"]
    index._fitted_n = index.ntotal if fitted_n is None else int(fitted_n)
    dead = np.asarray(arrays.get("tombstone_ids", ()), dtype=np.int64)
    if dead.size:
        index._tombstones = TombstoneSet(dead)
        index._on_delete(dead)  # structure-level filters (the flat dead mask)
    return index


def save_index(index, path) -> None:
    """Write *index*'s snapshot to exactly *path*, atomically: compressed
    into a sibling temp file, flushed, then renamed over *path* — a reader
    or a crash sees the previous archive or the complete new one.  Arrays
    the backend lists as re-derivable are left out."""
    arrays, state = export_state(index)
    entries = {
        key: value
        for key, value in arrays.items()
        if key not in type(index)._rederivable_arrays
    }
    entries["registry_name"] = np.asarray(state["registry_name"])
    entries["format_version"] = np.asarray(state["format_version"], dtype=np.int64)
    entries["index_epoch"] = np.asarray(state["epoch"], dtype=np.int64)
    entries["fitted_n"] = np.asarray(state["fitted_n"], dtype=np.int64)
    if state["params"]:
        encoded = json.dumps(state["params"]).encode("utf-8")
        entries["params_json"] = np.frombuffer(encoded, dtype=np.uint8)
    path = os.fspath(path)
    temp = f"{path}.{os.getpid()}-{secrets.token_hex(4)}.tmp"
    try:
        with open(temp, "wb") as handle:
            np.savez_compressed(handle, **entries)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, path)
    finally:
        with suppress(FileNotFoundError):  # gone after a successful replace
            os.remove(temp)


@contextmanager
def open_snapshot(path) -> Iterator[Tuple[Dict[str, Any], Callable[[], Any]]]:
    """Open the archive at *path* once: yields ``(header, load)``.

    *header* is the stamped state minus ``params`` (legacy archives read
    as epoch 0); ``load()`` restores the index from the same open file.
    Whatever a bad archive raises inside the block surfaces as
    :class:`SnapshotError` naming *path* and the cause; a missing file
    stays ``FileNotFoundError``.
    """
    path = os.fspath(path)
    try:
        with open(path, "rb") as handle:
            archive = np.load(handle)
            files = set(getattr(archive, "files", ()))  # a bare .npy has none
            if "registry_name" not in files:
                raise SnapshotError(
                    "no 'registry_name' entry — not an archive written by "
                    "ANNIndex.save()"
                )
            header = {
                "registry_name": str(archive["registry_name"]),
                "format_version": (
                    int(archive["format_version"]) if "format_version" in files else 0
                ),
                "epoch": int(archive["index_epoch"]) if "index_epoch" in files else 0,
                "fitted_n": int(archive["fitted_n"]) if "fitted_n" in files else None,
            }
            if header["format_version"] > FORMAT_VERSION:
                raise SnapshotError(
                    f"snapshot format version {header['format_version']} is newer "
                    f"than this library's {FORMAT_VERSION} — it was written by a "
                    "newer release; upgrade the library to load it"
                )

            def load():
                params = (
                    json.loads(bytes(archive["params_json"]).decode("utf-8"))
                    if "params_json" in files
                    else {}
                )
                arrays = {key: archive[key] for key in files.difference(_STATE_KEYS)}
                return restore_state(arrays, {**header, "params": params})

            yield header, load
    except (zipfile.BadZipFile, zlib.error, EOFError, ValueError) as error:
        raise SnapshotError(f"cannot load snapshot {path!r}: {error}") from error


def saved_registry_name(path) -> str:
    """The registry name stored in the archive at *path*."""
    with open_snapshot(path) as (header, _):
        return header["registry_name"]


def snapshot_epoch(path) -> int:
    """The index epoch stamped into the archive at *path* (0 for legacy
    pre-lifecycle archives), read without restoring it."""
    with open_snapshot(path) as (header, _):
        return header["epoch"]


def load_index(path):
    """Restore the index saved at *path*, whichever class wrote it.

    Raises :class:`SnapshotError` (a ``ValueError``) for a file that is
    not a snapshot archive, is truncated or fails its CRC, lacks
    ``registry_name`` or a required array, or carries a
    ``format_version`` newer than :data:`FORMAT_VERSION`.
    """
    with open_snapshot(path) as (_, load):
        return load()
