"""Shared helpers for ``.npz`` artifact files.

``np.savez`` silently appends ``.npz`` to paths that lack the suffix, so a
naive ``save("x.bin")`` writes ``x.bin.npz`` while ``load("x.bin")`` looks
for the original name and fails.  Every artifact writer/reader in the
library routes paths through :func:`normalize_npz_path` so save and load
always agree on the on-disk name.

:func:`save_npz` and :func:`open_npz_archive` additionally translate the
raw I/O failures numpy surfaces — a missing parent directory, a
permission error, a truncated or non-zip file — into
:class:`~repro.errors.ArtifactError`, so every artifact path problem
reaches the CLI as a clean ``exit 2`` message instead of a traceback.
The translation covers the *whole* read, not just the ``np.load`` call:
``.npz`` members decompress lazily, so a truncated archive often opens
fine and only fails when an array is pulled out mid-``with``.

Zero-copy loading
-----------------
``open_npz_archive(path, mmap=True)`` yields a :class:`MappedNpzArchive`
instead of an eagerly-read ``NpzFile``: the file is memory-mapped once,
read-only, and every *stored* (uncompressed) ``.npy`` member becomes a
buffer-backed array over the shared mapping — no decompression, no copy,
and N processes opening the same artifact share one page-cache copy of
the bytes.  Deflated members (the ``np.savez_compressed`` layout) fall
back to an eager per-member read, so ``mmap=True`` is always safe to
request.  Write ``save_npz(path, payload, compressed=False)`` (the
``layout="mmap"`` bundle option) to produce fully mappable artifacts.

That writer lays the zip out itself so every member's array payload
starts on a 64-byte file offset (numpy's own ``.npy`` header alignment);
the mapping is page-aligned, so the mapped arrays are 64-byte aligned in
memory too.  ``np.savez`` leaves offsets to chance, and a float64 matrix
at an address ≡ 4 (mod 8) is gathered 3-4x slower (a 2,164-row
``np.take`` of the reddit-sim features: 2.0 ms against 0.46 ms).
Artifacts written before that still load: a member whose payload is
misaligned for its dtype is served as one private aligned copy and left
out of :attr:`MappedNpzArchive.mapped`.
"""

from __future__ import annotations

import io
import mmap as _mmap
import struct
import zipfile
import zlib
from contextlib import ExitStack, contextmanager
from pathlib import Path

import numpy as np

from repro.errors import ArtifactError, ReproError

__all__ = ["normalize_npz_path", "save_npz", "open_npz_archive",
           "MappedNpzArchive"]

#: Exceptions that signal a corrupt / truncated / unreadable artifact when
#: raised while an archive is being read.  ``zlib.error`` and ``EOFError``
#: come out of lazy member decompression; ``struct.error`` out of zip
#: header parsing; ``ValueError`` out of numpy's format checks.
_READ_ERRORS = (OSError, ValueError, zipfile.BadZipFile, zlib.error,
                EOFError, struct.error)


def normalize_npz_path(path: str | Path) -> Path:
    """Return ``path`` with the ``.npz`` suffix ``np.savez`` would produce.

    Mirrors numpy's behavior exactly: a missing suffix is appended (not
    substituted), so ``x.bin`` maps to ``x.bin.npz`` and ``x.npz`` is left
    untouched.
    """
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_name(path.name + ".npz")
    return path


def save_npz(path: str | Path, payload: dict, *,
             compressed: bool = True) -> Path:
    """Write ``payload`` as an ``.npz``; returns the real path.

    ``compressed=True`` (default) deflates every member — the smallest
    artifact.  ``compressed=False`` stores members raw, each payload on
    a 64-byte offset, which is what makes :class:`MappedNpzArchive`
    zero-copy: stored members are memory-mapped in place as aligned
    arrays.  Unwritable targets (missing parent directory, permissions,
    full disk) raise :class:`ArtifactError` with the offending path in
    the message.
    """
    target = normalize_npz_path(path)
    try:
        if compressed:
            np.savez_compressed(target, **payload)
        else:
            with open(target, "wb") as handle:
                _write_stored_zip(handle, payload)
    except OSError as exc:
        raise ArtifactError(
            f"cannot write artifact {target}: {exc}") from exc
    return target


#: Payload alignment of every stored member, in file offset and hence in
#: mapped memory (numpy's ``.npy`` header alignment).
_ALIGN = 64
#: A zip size or offset at or past this is stored in a zip64 record, its
#: 32-bit field holding the 0xFFFFFFFF marker.
_ZIP64_LIMIT = 0xFFFFFFFF
#: zipalign's extra-field id: ``<id, size, alignment>`` then zero bytes.
_PAD_ID = 0xD935
#: DOS date of 1980-01-01, so equal payloads give byte-identical files.
_DOS_DATE = (1 << 5) | 1


def _npy_parts(value) -> tuple[bytes, np.ndarray]:
    """The ``.npy`` header ``np.save`` writes for ``value`` and the
    payload as a flat byte view (a copy only for a non-contiguous array)."""
    array = np.asarray(value)
    fields = np.lib.format.header_data_from_array_1_0(array)
    header = io.BytesIO()
    np.lib.format.write_array_header_1_0(header, fields)
    flat = array.T if fields["fortran_order"] else np.ascontiguousarray(array)
    return header.getvalue(), flat.reshape(-1).view(np.uint8)


def _u32(value: int) -> int:
    """A 32-bit zip field: the value, or the zip64 marker past the limit."""
    return value if value < _ZIP64_LIMIT else 0xFFFFFFFF


def _write_stored_zip(handle, arrays: dict) -> None:
    """Write ``arrays`` as a stored zip of ``<key>.npy`` members.

    Each local header carries a zipalign pad so the array payload (the
    ``.npy`` header is a multiple of 64 bytes) starts on a 64-byte
    offset.  Zip64 records appear only where a field overflows, unlike
    ``np.savez``, which forces one onto every member.
    """
    central = []
    for key, value in arrays.items():
        header, payload = _npy_parts(value)
        try:
            name, flags = f"{key}.npy".encode("ascii"), 0
        except UnicodeEncodeError:
            name, flags = f"{key}.npy".encode("utf-8"), 0x800  # utf-8 bit
        size = len(header) + payload.nbytes
        crc = zlib.crc32(payload, zlib.crc32(header))
        offset = handle.tell()
        extra = (struct.pack("<HHQQ", 1, 16, size, size)
                 if size >= _ZIP64_LIMIT else b"")
        pad = -(offset + 30 + len(name) + len(extra)) % _ALIGN
        if 0 < pad < 6:  # a pad record needs six bytes
            pad += _ALIGN
        if pad:
            extra += struct.pack("<HHH", _PAD_ID, pad - 4, _ALIGN)
            extra += bytes(pad - 6)
        handle.write(struct.pack(
            "<IHHHHHIIIHH", 0x04034B50, 45 if size >= _ZIP64_LIMIT else 20,
            flags, 0, 0, _DOS_DATE, crc, _u32(size), _u32(size), len(name),
            len(extra)))
        for chunk in (name, extra, header, payload):
            handle.write(chunk)
        central.append((name, flags, crc, size, offset))

    start = handle.tell()
    for name, flags, crc, size, offset in central:
        # zip64 values follow the order size, compressed size, offset
        wide = [value for value in (size, size, offset)
                if value >= _ZIP64_LIMIT]
        extra = (struct.pack(f"<HH{len(wide)}Q", 1, 8 * len(wide), *wide)
                 if wide else b"")
        version = 45 if wide else 20
        handle.write(struct.pack(
            "<IHHHHHHIIIHHHHHII", 0x02014B50, (3 << 8) | version, version,
            flags, 0, 0, _DOS_DATE, crc, _u32(size), _u32(size), len(name),
            len(extra), 0, 0, 0, 0o644 << 16, _u32(offset)))
        handle.write(name)
        handle.write(extra)
    end = handle.tell()
    count, length = len(central), end - start
    if count >= 0xFFFF or max(length, start) >= _ZIP64_LIMIT:
        handle.write(struct.pack("<IQHHIIQQQQ", 0x06064B50, 44, 45, 45, 0, 0,
                                 count, count, length, start))
        handle.write(struct.pack("<IIQI", 0x07064B50, 0, end, 1))
    handle.write(struct.pack(
        "<IHHHHIIH", 0x06054B50, 0, 0, min(count, 0xFFFF),
        min(count, 0xFFFF), _u32(length), _u32(start), 0))


class MappedNpzArchive:
    """A read-only, memory-mapped view of an ``.npz`` archive.

    Mirrors the slice of the ``NpzFile`` interface the artifact readers
    use — ``.files``, ``archive[name]``, ``close()`` — so it can stand in
    for ``np.load``'s return value.  Stored (uncompressed) members are
    returned as non-writable arrays backed by one shared ``mmap`` of the
    file; deflated members are read eagerly as a fallback.

    The arrays keep the mapping alive (they hold buffer references), so
    they remain valid after :meth:`close`.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._handle = open(self.path, "rb")
        try:
            self._buffer = _mmap.mmap(self._handle.fileno(), 0,
                                      access=_mmap.ACCESS_READ)
            self._zip = zipfile.ZipFile(self._handle)
            self._members = {
                info.filename[:-len(".npy")]
                if info.filename.endswith(".npy") else info.filename: info
                for info in self._zip.infolist()}
        except Exception:
            self.close()
            raise
        self.files = list(self._members)
        self._cache: dict[str, np.ndarray] = {}
        #: Member names served zero-copy from the mapping (diagnostics);
        #: a stored member misaligned for its dtype is copied, not listed.
        self.mapped: set[str] = set()

    # ------------------------------------------------------------------
    def __getitem__(self, name: str) -> np.ndarray:
        if name not in self._members:
            raise KeyError(f"{name} is not a file in the archive")
        if name not in self._cache:
            info = self._members[name]
            if info.compress_type == zipfile.ZIP_STORED:
                array = self._mapped_member(info)
                if array.flags.aligned:
                    self.mapped.add(name)
                else:
                    # a misaligned view (an ``np.savez`` artifact) slows
                    # every read of it; one private copy is aligned
                    array = array.copy()
                self._cache[name] = array
            else:
                with self._zip.open(info) as member:
                    self._cache[name] = np.lib.format.read_array(
                        member, allow_pickle=False)
        return self._cache[name]

    def __contains__(self, name: str) -> bool:
        return name in self._members

    def _mapped_member(self, info: zipfile.ZipInfo) -> np.ndarray:
        """A non-writable array over the member's bytes in the mapping.

        The central directory's ``header_offset`` points at the member's
        *local* file header, whose name/extra fields may differ in length
        from the central ones — the data offset must be derived from the
        local header itself.
        """
        header = self._buffer[info.header_offset:info.header_offset + 30]
        if len(header) < 30 or header[:4] != b"PK\x03\x04":
            raise ArtifactError(
                f"{self.path} member {info.filename!r} has a corrupt "
                "local zip header")
        name_len, extra_len = struct.unpack("<HH", header[26:30])
        start = info.header_offset + 30 + name_len + extra_len
        member = memoryview(self._buffer)[start:start + info.file_size]
        # The npy header is tiny; copy just its prefix to parse it, then
        # point the array at the mapped payload bytes.
        prefix = io.BytesIO(member[:min(len(member), 66000)].tobytes())
        version = np.lib.format.read_magic(prefix)
        read_header = {
            (1, 0): np.lib.format.read_array_header_1_0,
            (2, 0): np.lib.format.read_array_header_2_0,
        }.get(version, np.lib.format.read_array_header_2_0)
        shape, fortran, dtype = read_header(prefix)
        if dtype.hasobject:
            raise ArtifactError(
                f"{self.path} member {info.filename!r} holds Python "
                "objects and cannot be memory-mapped")
        offset = prefix.tell()
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        data = np.frombuffer(member, dtype=dtype, count=count, offset=offset)
        return data.reshape(shape, order="F" if fortran else "C")

    # ------------------------------------------------------------------
    def close(self) -> None:
        for attr in ("_zip", "_handle"):
            handle = getattr(self, attr, None)
            if handle is not None:
                handle.close()
        # the mmap itself stays open while served arrays reference it;
        # dropping our handle lets it collapse once they are gone
        if getattr(self, "_buffer", None) is not None:
            self._buffer = None

    def __enter__(self) -> "MappedNpzArchive":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"MappedNpzArchive({str(self.path)!r}, "
                f"members={len(self.files)}, mapped={len(self.mapped)})")


@contextmanager
def open_npz_archive(path: str | Path, kind: str = "artifact", *,
                     mmap: bool = False):
    """Open an ``.npz`` for reading, yielding the archive object.

    Missing files raise ``ArtifactError(f"no {kind} at ...")``; unreadable
    or corrupt files (permissions, truncation, not a zip archive) raise
    :class:`ArtifactError` naming the path and the underlying failure —
    including corruption that only surfaces *inside* the ``with`` block,
    when a lazily-decompressed member is actually read.  Library errors
    (``ReproError``) raised by the block pass through untouched.

    ``mmap=True`` yields a :class:`MappedNpzArchive` — zero-copy for
    stored members, eager fallback for deflated ones.
    """
    target = normalize_npz_path(path)
    if not target.exists():
        raise ArtifactError(f"no {kind} at {target}")
    with ExitStack() as owned:
        try:
            if mmap:
                archive = owned.enter_context(MappedNpzArchive(target))
            else:
                # own the handle: np.load(path) leaks its own when the zip
                # parse fails, and NpzFile never closes a handle it was
                # given; NpzFile also refuses a non-zip payload, which
                # np.load would return as a bare array
                handle = owned.enter_context(open(target, "rb"))
                archive = owned.enter_context(np.lib.npyio.NpzFile(handle))
        except _READ_ERRORS as exc:
            raise ArtifactError(
                f"cannot read {kind} {target}: {exc}") from exc
        try:
            yield archive
        except ReproError:
            raise
        except _READ_ERRORS as exc:
            # lazy member reads fail *inside* the block (truncation, bad
            # CRC); the message repeats the cause rather than asserting
            # corruption, since the block's parsing code shares these
            # exception types
            raise ArtifactError(
                f"cannot read {kind} {target}: {exc}") from exc
