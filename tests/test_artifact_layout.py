"""Stored artifacts: every member's payload maps at a 64-byte address.

``save_npz(..., compressed=False)`` writes the zip itself so each array
starts on a 64-byte file offset; the mmap loader then serves every
member zero-copy and aligned.  Older, misaligned artifacts still load,
one private aligned copy per misaligned member.
"""

from __future__ import annotations

import struct
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro import api
from repro.utils import artifacts
from repro.utils.artifacts import open_npz_archive, save_npz


def _address(array: np.ndarray) -> int:
    return array.__array_interface__["data"][0]


def _assert_aligned_artifact(path) -> None:
    """Every member maps zero-copy at a 64-byte address, and a plain zip
    reader and eager ``np.load`` see the same archive."""
    with zipfile.ZipFile(path) as archive:
        assert archive.testzip() is None
    with open_npz_archive(path, mmap=True) as mapped, np.load(path) as eager:
        assert sorted(mapped.files) == sorted(eager.files)
        for name in eager.files:
            got, want = mapped[name], eager[name]
            assert _address(got) % 64 == 0, name
            assert got.flags.aligned
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        assert mapped.mapped == set(mapped.files)


def _payload_offset(path, member: str) -> int:
    """File offset of ``member``'s array payload, read from its local
    zip header and its ``.npy`` header."""
    with zipfile.ZipFile(path) as archive:
        info = archive.getinfo(member)
    raw = path.read_bytes()
    name_len, extra_len = struct.unpack(
        "<HH", raw[info.header_offset + 26:info.header_offset + 30])
    start = info.header_offset + 30 + name_len + extra_len
    header_len, = struct.unpack("<H", raw[start + 8:start + 10])  # npy 1.0
    return start + 10 + header_len


# ----------------------------------------------------------------------
# Every mmap writer
# ----------------------------------------------------------------------
@pytest.mark.parametrize("deployment", ("synthetic", "original"))
@pytest.mark.parametrize("precision", ("float64", "int8"))
def test_bundle_mmap_layout_is_aligned(tmp_path, deployment, precision):
    bundle = api.deploy("tiny-sim", "mcond", 9, profile="quick",
                        deployment=deployment)
    path = bundle.save(tmp_path / "bundle.npz", layout="mmap",
                       precision=precision)
    _assert_aligned_artifact(path)


_NAMES = st.text(st.characters(codec="utf-8", exclude_characters="\x00"),
                 min_size=1, max_size=12).filter(
    lambda name: name not in ("file", "allow_pickle"))  # np.savez keywords
_DTYPES = st.sampled_from(["<f8", "<f4", "<i8", "<i4", "i1", "<u2", "?",
                           "<c16", ">f8", "<U3", "S2"])


@st.composite
def _members(draw):
    array = draw(hnp.arrays(draw(_DTYPES), hnp.array_shapes(
        min_dims=0, max_dims=3, min_side=0, max_side=5)))
    layout = draw(st.sampled_from(["C", "F", "strided"]))
    if layout == "F":
        return np.asfortranarray(array)
    return array[::2] if layout == "strided" and array.ndim else array


@settings(max_examples=60, deadline=None)
@given(payload=st.dictionaries(_NAMES, _members(), min_size=1, max_size=6))
def test_stored_members_align_for_any_payload(tmp_path_factory, payload):
    root = tmp_path_factory.mktemp("payload")
    path = save_npz(root / "ours.npz", payload, compressed=False)
    _assert_aligned_artifact(path)
    with np.load(path) as eager:
        for name, want in payload.items():
            assert eager[name].tobytes() == np.asarray(want).tobytes()
    # the pads cost at most what np.savez's forced zip64 records do, plus
    # under one alignment unit per member
    np.savez(root / "reference.npz", **payload)
    gap = path.stat().st_size - (root / "reference.npz").stat().st_size
    assert abs(gap) <= 64 * len(payload)


def test_equal_payloads_write_identical_files(tmp_path):
    payload = {"x": np.arange(10.0), "label": np.asarray("same")}
    first = save_npz(tmp_path / "a.npz", payload, compressed=False)
    second = save_npz(tmp_path / "b.npz", payload, compressed=False)
    assert first.read_bytes() == second.read_bytes()


def test_zip64_records_round_trip(tmp_path, monkeypatch):
    # members past 4 GiB cannot be written in a test; a zero limit sends
    # every size and offset through the zip64 records instead
    monkeypatch.setattr(artifacts, "_ZIP64_LIMIT", 0)
    payload = {"a": np.arange(7.0), "b": np.ones((3, 2), dtype=np.int32)}
    path = save_npz(tmp_path / "wide.npz", payload, compressed=False)
    assert path.read_bytes()[-98:-94] == b"PK\x06\x06"  # zip64 end record
    _assert_aligned_artifact(path)


@pytest.fixture(scope="module")
def tiny_bundle():
    return api.deploy("tiny-sim", "mcond", 9, profile="quick")


@pytest.mark.parametrize("boundary", ("size", "offset", "directory"))
def test_zip64_limit_inside_an_mmap_artifact(tmp_path, monkeypatch,
                                             tiny_bundle, boundary):
    """A limit of a few KB splits an mmap artifact: the small members
    before it keep 32-bit fields, one member's size (or one member's
    offset, or the central directory's start) sits exactly on it, and
    everything past it goes through the zip64 records."""
    plain = tiny_bundle.save(tmp_path / "plain.npz", layout="mmap")
    with zipfile.ZipFile(plain) as archive:
        infos = sorted(archive.infolist(), key=lambda info: info.header_offset)
    directory, = struct.unpack("<I", plain.read_bytes()[-6:-2])
    sized = [info for info in infos if 0 < info.header_offset
             and 1024 <= info.file_size < directory]
    limit = {"size": sized[0].file_size, "offset": sized[0].header_offset,
             "directory": directory}[boundary]
    monkeypatch.setattr(artifacts, "_ZIP64_LIMIT", limit)
    path = tiny_bundle.save(tmp_path / "wide.npz", layout="mmap")
    raw = path.read_bytes()
    assert raw[-98:-94] == b"PK\x06\x06"  # zip64 end record
    assert raw[-42:-38] == b"PK\x06\x07"  # and its locator
    with zipfile.ZipFile(path) as archive:
        assert archive.testzip() is None
        wide = {info.filename for info in archive.infolist()
                if max(info.file_size, info.header_offset) >= limit}
        # at the directory boundary only the end record goes zip64
        assert bool(wide) == (boundary != "directory")
        assert wide != set(archive.namelist())
        for info in archive.infolist():
            assert info.extract_version == (45 if info.filename in wide
                                            else 20)
            # the local header alone, as a streaming reader sees it
            start = info.header_offset
            version, = struct.unpack("<H", raw[start + 4:start + 6])
            sizes = struct.unpack("<II", raw[start + 18:start + 26])
            name_len, extra_len = struct.unpack("<HH",
                                                raw[start + 26:start + 30])
            extra = raw[start + 30 + name_len:][:extra_len]
            size = info.file_size
            over = size >= limit
            assert version == (45 if over else 20), info.filename
            assert sizes == ((0xFFFFFFFF,) * 2 if over else (size, size))
            assert extra.startswith(
                struct.pack("<HHQQ", 1, 16, size, size)) == over
    with np.load(plain) as want, np.load(path) as eager, \
            zipfile.ZipFile(path) as archive, \
            open_npz_archive(path, mmap=True) as mapped:
        assert sorted(eager.files) == sorted(mapped.files) == sorted(
            want.files)
        for name in want.files:
            with archive.open(f"{name}.npy") as member:
                unzipped = np.lib.format.read_array(member)
            for got in (eager[name], unzipped, mapped[name]):
                assert got.dtype == want[name].dtype, name
                assert got.tobytes() == want[name].tobytes(), name
            assert _address(mapped[name]) % 64 == 0, name
        assert mapped.mapped == set(want.files)  # every member zero-copy


# ----------------------------------------------------------------------
# Artifacts written before alignment
# ----------------------------------------------------------------------
def test_misaligned_legacy_member_loads_as_aligned_copy(tmp_path):
    values = np.arange(12, dtype=np.float64).reshape(3, 4)
    # pick a name length that leaves np.savez's float64 payload misaligned
    for width in range(1, 9):
        name = "f" * width
        path = tmp_path / f"legacy{width}.npz"
        np.savez(path, **{name: values, "bytes": np.arange(5, dtype=np.int8)})
        if _payload_offset(path, f"{name}.npy") % 8:
            break
    else:
        pytest.fail("every name length left the payload aligned")
    with open_npz_archive(path, mmap=True) as archive:
        got = archive[name]
        assert np.array_equal(got, values)
        assert got.flags.aligned
        assert name not in archive.mapped
        assert np.array_equal(archive["bytes"], np.arange(5, dtype=np.int8))
        assert archive.mapped == {"bytes"}  # int8 is never misaligned
