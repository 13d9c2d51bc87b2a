"""Tests for the shared-memory segment layer (:mod:`repro.parallel.shm`)."""

from __future__ import annotations

import os
import secrets
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.parallel.shm import (
    SEGMENT_PREFIX,
    SegmentHandle,
    attach_segment,
    leaked_segments,
    publish_arrays,
)
from tests.parallel._leaks import own_leaked_segments


@pytest.fixture()
def sample_arrays():
    rng = np.random.default_rng(9)
    return {
        "floats": rng.normal(size=(13, 7)),
        "ints": rng.integers(0, 1000, size=29, dtype=np.int64),
        "bools": rng.random(17) < 0.5,
        "empty": np.empty((0, 4), dtype=np.float32),
        "scalarish": np.asarray([3], dtype=np.int32),
    }


class TestPublishAttach:
    def test_round_trip_preserves_values_dtypes_shapes(self, sample_arrays):
        segment = publish_arrays(sample_arrays)
        try:
            attachment = attach_segment(segment.handle)
            try:
                assert set(attachment.arrays) == set(sample_arrays)
                for key, original in sample_arrays.items():
                    view = attachment.arrays[key]
                    assert view.dtype == original.dtype, key
                    assert view.shape == original.shape, key
                    np.testing.assert_array_equal(view, original)
            finally:
                attachment.close()
        finally:
            segment.close()

    def test_views_are_read_only(self, sample_arrays):
        segment = publish_arrays(sample_arrays)
        try:
            attachment = attach_segment(segment.handle)
            try:
                view = attachment.arrays["floats"]
                assert not view.flags.writeable
                with pytest.raises((ValueError, RuntimeError)):
                    view[0, 0] = 42.0
            finally:
                attachment.close()
        finally:
            segment.close()

    def test_publish_copies_the_data(self, sample_arrays):
        """Mutating the source after publish must not change the segment."""
        source = sample_arrays["floats"].copy()
        segment = publish_arrays({"floats": source})
        try:
            before = source.copy()
            source[...] = -1.0
            attachment = attach_segment(segment.handle)
            try:
                np.testing.assert_array_equal(attachment.arrays["floats"], before)
            finally:
                attachment.close()
        finally:
            segment.close()

    def test_non_contiguous_input_round_trips(self):
        base = np.arange(48, dtype=np.float64).reshape(6, 8)
        strided = base[::2, ::2]  # non-contiguous view
        segment = publish_arrays({"strided": strided})
        try:
            attachment = attach_segment(segment.handle)
            try:
                np.testing.assert_array_equal(attachment.arrays["strided"], strided)
            finally:
                attachment.close()
        finally:
            segment.close()

    def test_object_dtype_rejected(self):
        with pytest.raises(TypeError, match="object dtype"):
            publish_arrays({"bad": np.asarray(["a", None], dtype=object)})

    def test_empty_mapping_publishes(self):
        segment = publish_arrays({})
        try:
            attachment = attach_segment(segment.handle)
            try:
                assert attachment.arrays == {}
            finally:
                attachment.close()
        finally:
            segment.close()

    def test_handle_is_picklable(self, sample_arrays):
        import pickle

        segment = publish_arrays(sample_arrays)
        try:
            clone = pickle.loads(pickle.dumps(segment.handle))
            assert isinstance(clone, SegmentHandle)
            assert clone == segment.handle
            attachment = attach_segment(clone)
            try:
                np.testing.assert_array_equal(
                    attachment.arrays["ints"], sample_arrays["ints"]
                )
            finally:
                attachment.close()
        finally:
            segment.close()

    def test_alignment_of_every_array(self, sample_arrays):
        segment = publish_arrays(sample_arrays)
        try:
            for spec in segment.handle.specs:
                assert spec.offset % 64 == 0
        finally:
            segment.close()


class TestLifetime:
    def test_segment_names_carry_prefix(self, sample_arrays):
        segment = publish_arrays(sample_arrays)
        try:
            assert segment.name.startswith(SEGMENT_PREFIX)
        finally:
            segment.close()

    def test_publisher_close_is_idempotent(self, sample_arrays):
        segment = publish_arrays(sample_arrays)
        segment.close()
        segment.close()  # second close must be a no-op
        assert own_leaked_segments() == ()

    def test_attacher_close_does_not_unlink(self, sample_arrays):
        segment = publish_arrays(sample_arrays)
        try:
            attachment = attach_segment(segment.handle)
            attachment.close()
            attachment.close()
            # Still attachable: the attacher never unlinks.
            again = attach_segment(segment.handle)
            again.close()
        finally:
            segment.close()
        assert own_leaked_segments() == ()

    def test_no_leaks_after_close(self, sample_arrays):
        segment = publish_arrays(sample_arrays)
        assert segment.name in own_leaked_segments()
        segment.close()
        assert segment.name not in own_leaked_segments()

    def test_leak_check_ignores_other_processes_segments(self):
        """A segment published under another pid — here one whose digits
        start with this pid's — is another suite's: the scoped check
        skips it, the host-wide scan still reports it."""
        name = f"{SEGMENT_PREFIX}-{os.getpid()}0-{secrets.token_hex(4)}"
        other = shared_memory.SharedMemory(name=name, create=True, size=8)
        try:
            assert name in leaked_segments()
            assert name not in own_leaked_segments()
        finally:
            other.close()
            other.unlink()
        assert name not in leaked_segments()
