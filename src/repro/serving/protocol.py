"""Wire protocol of the network serving gateway.

The gateway (:mod:`repro.serving.gateway`) speaks a small length-prefixed
frame format over TCP.  Every frame is::

    MAGIC(4) | version(1) | header_len(4, !I) | payload_len(4, !I)
    | header JSON (utf-8) | payload bytes

The JSON header carries the operation and its metadata; arrays travel
either inline in the header (``encoding="json"`` — nested lists, exact
for float64 because Python's JSON round-trips doubles bit-for-bit) or in
the binary payload (``encoding="binary"`` — raw little-endian buffers
described by ``{dtype, shape, offset, nbytes}`` specs, the fast path; a
float32 payload is accepted and widened server-side).  Sparse matrices
ship as CSR triples under the same two encodings.

Wire precision contract
-----------------------
The replicas always compute in float64 (an artifact's storage precision
is widened at load — see ``docs/precision.md``):

- ``encoding="json"`` carries float64 exactly: Python's ``repr``-based
  JSON serialization round-trips IEEE-754 doubles bit-for-bit, so the
  gateway preserves the end-to-end bitwise-parity guarantee over JSON
  frames.
- ``encoding="binary"`` declares its dtype per array (``float64`` or
  ``float32``).  A float32 buffer halves request bandwidth; the server
  widens it to float64 **once at decode time** (exact — every float32
  is representable as a float64).  Sending float32 therefore changes
  the inputs (the client already rounded), never the server's
  arithmetic.
- Replies always encode logits as float64.

``int8`` never appears on the wire: it is an artifact storage format
(per-column absmax-quantized features, dequantized at load), not a
transport format.

Request operations:

- ``serve``  — one inductive request: ``features`` ``(n, d)``,
  ``incremental`` ``(n, N)``, optional ``intra`` ``(n, n)`` and
  optional ``mode`` (``graph``/``node``);
- ``ping``   — liveness probe;
- ``stats``  — the gateway's JSON accounting snapshot.

Wire version
------------
The prefix byte is ``3`` and that is the only version this build
speaks: any other value draws a structured ``unsupported protocol
version`` error reply and a clean close.  Version 3 removed version 2's
per-request switch to the cached-propagation operator: every reply
comes from the operator the deployment serves, so a version-2 peer is
refused rather than silently answered through another operator than
the one it asked for.  The serve header's optional
``task`` field (``predict`` | ``embed`` | ``link_score`` | ``topk``)
plus the task-specific ``k`` / ``pairs`` / ``scorer`` options select
what the reply carries; see ``docs/tasks.md``.  A header without
``task`` means ``predict``.  Unknown tasks are rejected with a
structured ``error`` reply, never a dropped connection.  Whatever the
task produced travels in the reply's ``logits`` array slot (predict:
class logits; embed: embeddings; link_score: one score per pair; topk:
``(n, 2k)`` rows of ``[neighbor ids | cosine scores]``).

Replies carry ``status``: ``ok`` (logits + serving metadata), ``shed``
(admission control refused the request; ``retry_after_ms`` hints when to
come back), or ``error``.  Responses may arrive out of submission order
— the ``id`` echoes the request's, which is what lets one connection
pipeline many requests (:meth:`GatewayClient.submit` /
:meth:`GatewayClient.drain`).

:class:`GatewayClient` is the stdlib-socket client used by the example,
the benchmark, the CI smoke job, and the tests.
"""

from __future__ import annotations

import json
import socket
import struct
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.errors import ServingError
from repro.graph.datasets import IncrementalBatch
# importing the embeddings module also populates the TASKS registry the
# decoder validates task names against
from repro.serving.embeddings import ServeTask

__all__ = ["MAGIC", "PROTOCOL_VERSION", "ProtocolError", "GatewayReply",
           "GatewayClient", "encode_frame", "decode_serve_request",
           "encode_serve_request", "encode_reply", "decode_reply",
           "read_frame_from"]

MAGIC = b"RPRO"
PROTOCOL_VERSION = 3
_PREFIX = struct.Struct("!4sBII")

#: Hard ceilings a single frame may not exceed — a corrupted or hostile
#: length prefix must not make the server allocate unbounded memory.
MAX_HEADER_BYTES = 8 * 1024 * 1024
MAX_PAYLOAD_BYTES = 256 * 1024 * 1024

_ENCODINGS = ("json", "binary")
_DTYPES = ("float64", "float32")


class ProtocolError(ServingError):
    """A frame violated the wire format."""


# ----------------------------------------------------------------------
# Frames
# ----------------------------------------------------------------------
def encode_frame(header: dict, payload: bytes = b"") -> bytes:
    """Serialize one frame (prefix + JSON header + payload)."""
    raw = json.dumps(header, separators=(",", ":")).encode("utf-8")
    return _PREFIX.pack(MAGIC, PROTOCOL_VERSION, len(raw),
                        len(payload)) + raw + payload


def decode_prefix(prefix: bytes) -> tuple[int, int]:
    """Validate a frame prefix; returns ``(header_len, payload_len)``."""
    if len(prefix) != _PREFIX.size:
        raise ProtocolError(
            f"truncated frame prefix ({len(prefix)}/{_PREFIX.size} bytes)")
    magic, version, header_len, payload_len = _PREFIX.unpack(prefix)
    if magic != MAGIC:
        raise ProtocolError(
            f"bad frame magic {magic!r} (expected {MAGIC!r})")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"unsupported protocol version {version} "
            f"(this build speaks {PROTOCOL_VERSION})")
    if header_len > MAX_HEADER_BYTES or payload_len > MAX_PAYLOAD_BYTES:
        raise ProtocolError(
            f"frame too large (header {header_len} B, payload "
            f"{payload_len} B)")
    return header_len, payload_len


def parse_header(raw: bytes) -> dict:
    try:
        header = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"frame header is not valid JSON: {error}")
    if not isinstance(header, dict):
        raise ProtocolError(
            f"frame header must be a JSON object, got {type(header).__name__}")
    return header


def read_frame_from(read_exactly) -> tuple[dict, bytes]:
    """Read one frame via ``read_exactly(n) -> bytes`` (sync transports)."""
    header_len, payload_len = decode_prefix(read_exactly(_PREFIX.size))
    header = parse_header(read_exactly(header_len))
    payload = read_exactly(payload_len) if payload_len else b""
    return header, payload


# ----------------------------------------------------------------------
# Array and CSR codecs
# ----------------------------------------------------------------------
def _encode_array(array: np.ndarray, encoding: str, dtype: str,
                  payload: bytearray):
    if encoding == "json":
        return np.asarray(array, dtype=np.float64).tolist()
    raw = np.ascontiguousarray(array, dtype=f"<{np.dtype(dtype).str[1:]}")
    offset = len(payload)
    payload.extend(raw.tobytes())
    return {"dtype": dtype, "shape": list(array.shape),
            "offset": offset, "nbytes": raw.nbytes}


def _encode_index_array(array: np.ndarray, encoding: str,
                        payload: bytearray):
    if encoding == "json":
        return np.asarray(array).tolist()
    raw = np.ascontiguousarray(array, dtype="<i8")
    offset = len(payload)
    payload.extend(raw.tobytes())
    return {"dtype": "int64", "shape": list(array.shape),
            "offset": offset, "nbytes": raw.nbytes}


def _decode_array(spec, payload: bytes, *, name: str,
                  index: bool = False) -> np.ndarray:
    """Rebuild an array from a header spec (list or payload descriptor)."""
    if isinstance(spec, list):
        try:
            return np.asarray(spec,
                              dtype=np.int64 if index else np.float64)
        except (TypeError, ValueError) as error:
            raise ProtocolError(f"{name}: malformed inline array: {error}")
    if not isinstance(spec, dict):
        raise ProtocolError(
            f"{name}: array spec must be a list or payload descriptor, "
            f"got {type(spec).__name__}")
    try:
        dtype = str(spec["dtype"])
        shape = tuple(int(v) for v in spec["shape"])
        offset, nbytes = int(spec["offset"]), int(spec["nbytes"])
    except (KeyError, TypeError, ValueError) as error:
        raise ProtocolError(f"{name}: malformed payload descriptor: {error}")
    allowed = ("int64",) if index else _DTYPES
    if dtype not in allowed:
        raise ProtocolError(
            f"{name}: dtype must be one of {allowed}, got {dtype!r}")
    if offset < 0 or nbytes < 0 or offset + nbytes > len(payload):
        raise ProtocolError(
            f"{name}: payload slice [{offset}, {offset + nbytes}) exceeds "
            f"the {len(payload)}-byte payload")
    raw = np.frombuffer(payload, dtype=f"<{np.dtype(dtype).str[1:]}",
                        offset=offset, count=nbytes // np.dtype(dtype).itemsize)
    try:
        raw = raw.reshape(shape)
    except ValueError:
        raise ProtocolError(
            f"{name}: {nbytes} payload bytes do not fill shape {shape}")
    target = np.int64 if index else np.float64
    return np.asarray(raw, dtype=target)  # copies only when widening


def _encode_matrix(matrix, encoding: str, dtype: str, payload: bytearray):
    """Dense array → array spec; sparse → CSR triple of specs."""
    if sp.issparse(matrix):
        csr = matrix.tocsr()
        return {"kind": "csr", "shape": list(csr.shape),
                "data": _encode_array(csr.data, encoding, dtype, payload),
                "indices": _encode_index_array(csr.indices, encoding, payload),
                "indptr": _encode_index_array(csr.indptr, encoding, payload)}
    return _encode_array(np.asarray(matrix), encoding, dtype, payload)


def _decode_matrix(spec, payload: bytes, *, name: str) -> sp.csr_matrix:
    if isinstance(spec, dict) and spec.get("kind") == "csr":
        try:
            shape = tuple(int(v) for v in spec["shape"])
        except (KeyError, TypeError, ValueError) as error:
            raise ProtocolError(f"{name}: malformed csr shape: {error}")
        data = _decode_array(spec.get("data"), payload, name=f"{name}.data")
        indices = _decode_array(spec.get("indices"), payload,
                                name=f"{name}.indices", index=True)
        indptr = _decode_array(spec.get("indptr"), payload,
                               name=f"{name}.indptr", index=True)
        try:
            return sp.csr_matrix((data, indices, indptr), shape=shape)
        except (ValueError, IndexError) as error:
            raise ProtocolError(f"{name}: inconsistent csr triple: {error}")
    dense = _decode_array(spec, payload, name=name)
    return sp.csr_matrix(np.atleast_2d(dense))


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------
def encode_serve_request(request_id: int, task: ServeTask, *,
                         encoding: str = "json",
                         dtype: str = "float64") -> bytes:
    """Build one ``serve`` frame from a :class:`ServeTask`.

    Every field that differs from the :class:`ServeTask` defaults is
    emitted (``task``/``k``/``pairs``/``scorer``, ``mode``, and
    ``trace`` — a client-chosen trace id the
    gateway's request tracing adopts; without one it stamps its own).
    ``pairs`` always travels inline in the header (small integer lists
    round-trip exactly under both encodings).
    """
    if not isinstance(task, ServeTask):
        raise ServingError(
            f"expected a ServeTask, got {type(task).__name__}")
    if encoding not in _ENCODINGS:
        raise ServingError(
            f"encoding must be one of {_ENCODINGS}, got {encoding!r}")
    if dtype not in _DTYPES:
        raise ServingError(f"dtype must be one of {_DTYPES}, got {dtype!r}")
    batch = task.batch
    payload = bytearray()
    header = {
        "op": "serve",
        "id": int(request_id),
        "encoding": encoding,
        "features": _encode_array(batch.features, encoding, dtype, payload),
        "incremental": _encode_matrix(batch.incremental, encoding, dtype,
                                      payload),
    }
    if batch.intra is not None and batch.intra.nnz:
        header["intra"] = _encode_matrix(batch.intra, encoding, dtype,
                                         payload)
    if task.task != "predict":
        header["task"] = task.task
    if task.task == "topk" and task.k != 10:
        header["k"] = task.k
    if task.pairs is not None:
        header["pairs"] = task.pairs.tolist()
    if task.task == "link_score" and task.scorer != "dot":
        header["scorer"] = task.scorer
    if task.mode is not None:
        header["mode"] = task.mode
    if task.trace_id is not None:
        header["trace"] = task.trace_id
    return encode_frame(header, bytes(payload))


@dataclass(frozen=True)
class ServeRequest:
    """A decoded ``serve`` frame: the wire id and reply encoding around
    the :class:`ServeTask` handed to ``ServingFleet.submit``."""

    request_id: int
    encoding: str
    task: ServeTask


def decode_serve_request(header: dict, payload: bytes) -> ServeRequest:
    """Validate and decode one ``serve`` header into a request.

    JSON types are checked here; option *values* (task name, mode,
    scorer, ``k`` range, pairs shape) are validated once, by
    :class:`ServeTask` itself — its ``ServingError`` is re-raised as
    :class:`ProtocolError` so every malformed frame gets the same
    structured reply.
    """
    request_id = header.get("id")
    if not isinstance(request_id, int):
        raise ProtocolError(f"request id must be an integer, got {request_id!r}")
    trace_id = header.get("trace")
    if trace_id is not None and not isinstance(trace_id, str):
        raise ProtocolError(f"trace id must be a string, got {trace_id!r}")
    task_name = header.get("task", "predict")
    if not isinstance(task_name, str):
        raise ProtocolError(f"task must be a string, got {task_name!r}")
    k = header.get("k", 10)
    if not isinstance(k, int) or isinstance(k, bool):
        raise ProtocolError(f"k must be a positive integer, got {k!r}")
    pairs = None
    if "pairs" in header:
        try:
            pairs = np.asarray(header["pairs"], dtype=np.int64)
        except (TypeError, ValueError) as error:
            raise ProtocolError(f"malformed pairs: {error}")
    if "features" not in header or "incremental" not in header:
        raise ProtocolError("serve frame needs 'features' and 'incremental'")
    features = _decode_array(header["features"], payload, name="features")
    features = np.atleast_2d(features)
    if features.ndim != 2 or features.shape[0] == 0:
        raise ProtocolError(
            f"features must be (n >= 1, d), got shape {features.shape}")
    incremental = _decode_matrix(header["incremental"], payload,
                                 name="incremental")
    n = features.shape[0]
    if incremental.shape[0] != n:
        raise ProtocolError(
            f"incremental has {incremental.shape[0]} rows for {n} "
            "feature rows")
    if "intra" in header:
        intra = _decode_matrix(header["intra"], payload, name="intra")
        if intra.shape != (n, n):
            raise ProtocolError(
                f"intra adjacency has shape {intra.shape}, expected "
                f"({n}, {n})")
    else:
        intra = sp.csr_matrix((n, n), dtype=np.float64)
    batch = IncrementalBatch(features=features, incremental=incremental,
                             intra=intra,
                             labels=np.full(n, -1, dtype=np.int64))
    try:
        task = ServeTask(batch=batch, task=task_name,
                         mode=header.get("mode"), k=k, pairs=pairs,
                         scorer=header.get("scorer", "dot"),
                         trace_id=trace_id)
    except ServingError as error:
        raise ProtocolError(str(error)) from None
    return ServeRequest(request_id=request_id,
                        encoding=header.get("encoding", "json"), task=task)


# ----------------------------------------------------------------------
# Replies
# ----------------------------------------------------------------------
def encode_reply(request_id: int | None, status: str, *,
                 logits: np.ndarray | None = None,
                 error: str | None = None,
                 retry_after_ms: float | None = None,
                 replica_id: int | None = None,
                 attempts: int | None = None,
                 compute_ms: float | None = None,
                 encoding: str = "json",
                 trace_id: str | None = None,
                 stages: dict | None = None) -> bytes:
    """Build one reply frame (``ok`` / ``shed`` / ``error``).

    ``trace_id`` echoes the request's trace and ``stages`` carries its
    per-stage latency breakdown (stage name → milliseconds) so clients
    see where their time went without scraping the gateway.
    """
    payload = bytearray()
    header: dict = {"op": "reply", "id": request_id, "status": status}
    if logits is not None:
        header["logits"] = _encode_array(logits, encoding, "float64", payload)
    if error is not None:
        header["error"] = error
    if retry_after_ms is not None:
        header["retry_after_ms"] = retry_after_ms
    if replica_id is not None:
        header["replica"] = replica_id
    if attempts is not None:
        header["attempts"] = attempts
    if compute_ms is not None:
        header["compute_ms"] = compute_ms
    if trace_id is not None:
        header["trace"] = trace_id
    if stages is not None:
        header["stages"] = stages
    return encode_frame(header, bytes(payload))


@dataclass(frozen=True)
class GatewayReply:
    """One decoded reply frame."""

    request_id: int | None
    status: str  # ok | shed | error | pong | stats
    logits: np.ndarray | None = None
    error: str | None = None
    retry_after_ms: float | None = None
    replica_id: int | None = None
    attempts: int | None = None
    compute_ms: float | None = None
    stats: dict | None = None
    trace_id: str | None = None
    stages: dict | None = None  # stage name -> milliseconds

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def decode_reply(header: dict, payload: bytes) -> GatewayReply:
    status = header.get("status")
    if not isinstance(status, str):
        raise ProtocolError(f"reply misses a status string: {header!r}")
    logits = None
    if "logits" in header:
        logits = _decode_array(header["logits"], payload, name="logits")
    return GatewayReply(
        request_id=header.get("id"), status=status, logits=logits,
        error=header.get("error"),
        retry_after_ms=header.get("retry_after_ms"),
        replica_id=header.get("replica"), attempts=header.get("attempts"),
        compute_ms=header.get("compute_ms"), stats=header.get("stats"),
        trace_id=header.get("trace"), stages=header.get("stages"))


# ----------------------------------------------------------------------
# Synchronous client
# ----------------------------------------------------------------------
class GatewayClient:
    """Stdlib-socket client for the gateway's framed protocol.

    One client owns one TCP connection.  :meth:`serve_batch` is the
    simple request/response path; :meth:`submit` + :meth:`drain`
    pipeline many requests down the same connection without waiting for
    replies in between — the shape that builds real queue depth from a
    single thread (``examples/gateway_serving.py``).
    """

    def __init__(self, host: str, port: int, *,
                 timeout: float = 60.0, encoding: str = "json") -> None:
        if encoding not in _ENCODINGS:
            raise ServingError(
                f"encoding must be one of {_ENCODINGS}, got {encoding!r}")
        self.encoding = encoding
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._next_id = 0

    # -- transport ------------------------------------------------------
    def _read_exactly(self, n: int) -> bytes:
        chunks = []
        remaining = n
        while remaining:
            chunk = self._sock.recv(remaining)
            if not chunk:
                raise ProtocolError(
                    "connection closed mid-frame by the gateway")
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def _read_reply(self) -> GatewayReply:
        header, payload = read_frame_from(self._read_exactly)
        return decode_reply(header, payload)

    # -- request/response ----------------------------------------------
    def submit(self, task: ServeTask, *, dtype: str = "float64") -> int:
        """Send one ``serve`` frame without waiting; returns its id."""
        self._next_id += 1
        frame = encode_serve_request(self._next_id, task,
                                     encoding=self.encoding, dtype=dtype)
        self._sock.sendall(frame)
        return self._next_id

    def drain(self, count: int) -> dict[int, GatewayReply]:
        """Collect ``count`` replies (any order); returns them by id."""
        replies = {}
        for _ in range(count):
            reply = self._read_reply()
            replies[reply.request_id] = reply
        return replies

    def serve_batch(self, task: ServeTask, *,
                    dtype: str = "float64") -> GatewayReply:
        """One request, one reply (blocks until the gateway answers)."""
        request_id = self.submit(task, dtype=dtype)
        reply = self._read_reply()
        if reply.request_id != request_id:
            raise ProtocolError(
                f"reply id {reply.request_id} does not match request "
                f"{request_id} (mixing serve_batch with pipelining?)")
        return reply

    def ping(self) -> GatewayReply:
        self._next_id += 1
        self._sock.sendall(encode_frame({"op": "ping", "id": self._next_id}))
        return self._read_reply()

    def stats(self) -> dict:
        """The gateway's accounting snapshot (admission, scaling, volume)."""
        self._next_id += 1
        self._sock.sendall(encode_frame({"op": "stats", "id": self._next_id}))
        reply = self._read_reply()
        if reply.stats is None:
            raise ProtocolError(f"stats reply carried no stats: {reply}")
        return reply.stats

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "GatewayClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
