"""Wire schema for the ABR decision service.

One request type flows client -> server: *decide* -- "here is my player
state, which ladder index should the next chunk use?" -- plus a *close*
teardown.  The payload mirrors :class:`~repro.abr.simulator.AbrObservation`
field for field, because that is exactly what the serial protocols (and
the paper's adversary) observe; the server reconstructs the observation
and the decision is a pure function of it plus per-session policy state.

Two codecs, selected by content type and bitwise-equivalent:

- ``application/json`` -- human-readable JSON.  Python's ``json``
  serializes floats with ``repr``, which round-trips every finite
  float64 exactly, so decoding recovers the client's bytes and the
  identity guarantee (served decision == inline policy call) survives
  the wire.
- ``application/x-repro-frame`` -- a little-endian struct-packed frame
  (floats as raw IEEE-754 doubles).  ~4x cheaper to encode+decode than
  JSON; this matters because codec work is per-request and cannot be
  batched, so at high concurrency it bounds the coalescing speedup.

Validation is layered: this module enforces *shape* invariants (types,
ranges, the fresh-start rules below); the session store checks state
against the served video (ladder width, chunk accounting, in-order
delivery).  Fresh-start rules: a chunk-0 observation must describe a
client that has downloaded nothing (no last quality, empty history,
zero buffer) because server-side adapters initialize their per-lane
state exactly like a fresh :class:`StreamingSession`; a chunk-``k>0``
observation must carry the previous download (``last_quality`` set,
``last_download_seconds > 0``) because the adapters' observe hooks
replay it.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

import numpy as np

from repro.abr.simulator import AbrObservation

__all__ = [
    "CONTENT_BINARY",
    "CONTENT_JSON",
    "DecisionRequest",
    "DecisionResponse",
    "ServeError",
    "decode_request",
    "decode_response",
    "encode_error",
    "encode_request",
    "encode_response",
]

CONTENT_JSON = "application/json"
CONTENT_BINARY = "application/x-repro-frame"

#: Upper bounds keeping one frame small and parse cost flat.
MAX_SESSION_ID = 128
MAX_LADDER = 64
MAX_HISTORY = 64
MAX_BODY_BYTES = 1 << 20

_MAGIC = 0xAB
_KIND_DECIDE = 1
_KIND_CLOSE = 2
_KIND_DECISION = 3
_KIND_CLOSED = 4
_KIND_ERROR = 5

_FLAG_PROTOCOL = 1
_FLAG_SEED = 2
_FLAG_LAST_QUALITY = 4
_FLAGS_KNOWN = _FLAG_PROTOCOL | _FLAG_SEED | _FLAG_LAST_QUALITY


class ServeError(Exception):
    """A request the service refuses, with an HTTP status and stable code."""

    def __init__(self, status: int, code: str, message: str) -> None:
        super().__init__(message)
        self.status = int(status)
        self.code = code
        self.message = message


@dataclass(slots=True)
class DecisionRequest:
    """One client->server frame.

    ``protocol`` and ``seed`` are only meaningful on a session's first
    request (they configure the new session); ``close`` requests carry
    no observation and tear the session down.
    """

    session: str
    observation: AbrObservation | None
    protocol: str | None = None
    seed: int | None = None
    close: bool = False


@dataclass(slots=True)
class DecisionResponse:
    """One server->client frame: the ladder decision (or a close ack)."""

    session: str
    chunk_index: int = -1
    quality: int = -1
    bitrate_kbps: float = 0.0
    closed: bool = False


def _bad(message: str) -> ServeError:
    return ServeError(400, "bad-request", message)


def _require_float(value, name: str, minimum: float | None = None) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _bad(f"{name} must be a number, got {type(value).__name__}")
    value = float(value)
    if value != value or value in (float("inf"), float("-inf")):
        raise _bad(f"{name} must be finite")
    if minimum is not None and value < minimum:
        raise _bad(f"{name} must be >= {minimum}, got {value}")
    return value


def _require_int(value, name: str, minimum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise _bad(f"{name} must be an integer, got {type(value).__name__}")
    if minimum is not None and value < minimum:
        raise _bad(f"{name} must be >= {minimum}, got {value}")
    return value


def _validate_session_id(session) -> str:
    if not isinstance(session, str) or not session:
        raise _bad("session must be a non-empty string")
    if len(session) > MAX_SESSION_ID:
        raise _bad(f"session id longer than {MAX_SESSION_ID} characters")
    return session


def validate_observation(obs: AbrObservation) -> AbrObservation:
    """Enforce the shape invariants documented in the module docstring."""
    n = len(obs.next_chunk_sizes)
    if not 0 < n <= MAX_LADDER:
        raise _bad(f"next_chunk_sizes must hold 1..{MAX_LADDER} entries, got {n}")
    if len(obs.throughput_history) > MAX_HISTORY:
        raise _bad(f"throughput_history longer than {MAX_HISTORY} entries")
    if obs.chunks_remaining < 1:
        raise _bad("chunks_remaining must be >= 1 (nothing left to decide)")
    if obs.last_quality is not None and not 0 <= obs.last_quality < n:
        raise _bad(f"last_quality {obs.last_quality} outside the {n}-rung ladder")
    for size, dl in obs.throughput_history:
        if size < 0 or dl <= 0:
            raise _bad("throughput_history entries must be (size >= 0, seconds > 0)")
    if obs.chunk_index == 0:
        if (
            obs.last_quality is not None
            or obs.throughput_history
            or obs.buffer_seconds != 0.0
            or obs.last_chunk_bytes != 0.0
            or obs.last_download_seconds != 0.0
        ):
            raise _bad("a chunk-0 observation must describe a fresh client "
                       "(no last quality/history, zero buffer)")
    else:
        if obs.last_quality is None:
            raise _bad("last_quality is required after chunk 0")
        if obs.last_download_seconds <= 0.0:
            raise _bad("last_download_seconds must be > 0 after chunk 0")
        if not obs.throughput_history:
            raise _bad("throughput_history must not be empty after chunk 0")
    return obs


def _observation_from_dict(data: dict) -> AbrObservation:
    chunk_index = _require_int(data.get("chunk_index"), "chunk_index", minimum=0)
    last_quality = data.get("last_quality")
    if last_quality is not None:
        last_quality = _require_int(last_quality, "last_quality", minimum=0)
    sizes = data.get("next_chunk_sizes")
    if not isinstance(sizes, list) or not sizes:
        raise _bad("next_chunk_sizes must be a non-empty list")
    history = data.get("throughput_history", [])
    if not isinstance(history, list):
        raise _bad("throughput_history must be a list of [size, seconds] pairs")
    pairs = []
    for entry in history:
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise _bad("throughput_history must be a list of [size, seconds] pairs")
        pairs.append((_require_float(entry[0], "throughput_history size"),
                      _require_float(entry[1], "throughput_history seconds")))
    obs = AbrObservation(
        chunk_index=chunk_index,
        last_quality=last_quality,
        buffer_seconds=_require_float(
            data.get("buffer_seconds"), "buffer_seconds", minimum=0.0
        ),
        last_chunk_bytes=_require_float(
            data.get("last_chunk_bytes"), "last_chunk_bytes", minimum=0.0
        ),
        last_download_seconds=_require_float(
            data.get("last_download_seconds"), "last_download_seconds", minimum=0.0
        ),
        next_chunk_sizes=np.array(
            [_require_float(s, "next_chunk_sizes entry", minimum=0.0) for s in sizes]
        ),
        chunks_remaining=_require_int(
            data.get("chunks_remaining"), "chunks_remaining", minimum=0
        ),
        throughput_history=pairs,
    )
    return validate_observation(obs)


def _observation_to_jsonable(obs: AbrObservation) -> dict:
    return {
        "chunk_index": int(obs.chunk_index),
        "last_quality": None if obs.last_quality is None else int(obs.last_quality),
        "buffer_seconds": float(obs.buffer_seconds),
        "last_chunk_bytes": float(obs.last_chunk_bytes),
        "last_download_seconds": float(obs.last_download_seconds),
        "next_chunk_sizes": [float(s) for s in obs.next_chunk_sizes],
        "chunks_remaining": int(obs.chunks_remaining),
        "throughput_history": [[float(s), float(d)] for s, d in obs.throughput_history],
    }


# ---------------------------------------------------------------------------
# JSON codec
# ---------------------------------------------------------------------------


def _decode_request_json(body: bytes) -> DecisionRequest:
    try:
        data = json.loads(body)
    except (ValueError, UnicodeDecodeError) as exc:
        raise _bad(f"invalid JSON body: {exc}") from None
    if not isinstance(data, dict):
        raise _bad("request body must be a JSON object")
    session = _validate_session_id(data.get("session"))
    close = data.get("close", False)
    if not isinstance(close, bool):
        raise _bad(f"close must be a JSON boolean, got {type(close).__name__}")
    if close:
        return DecisionRequest(session=session, observation=None, close=True)
    protocol = data.get("protocol")
    if protocol is not None and not isinstance(protocol, str):
        raise _bad("protocol must be a string")
    seed = data.get("seed")
    if seed is not None:
        seed = _require_int(seed, "seed", minimum=0)
    obs_data = data.get("observation")
    if not isinstance(obs_data, dict):
        raise _bad("observation must be a JSON object")
    return DecisionRequest(
        session=session,
        observation=_observation_from_dict(obs_data),
        protocol=protocol,
        seed=seed,
    )


def _encode_request_json(req: DecisionRequest) -> bytes:
    if req.close:
        payload: dict = {"session": req.session, "close": True}
    else:
        payload = {"session": req.session,
                   "observation": _observation_to_jsonable(req.observation)}
        if req.protocol is not None:
            payload["protocol"] = req.protocol
        if req.seed is not None:
            payload["seed"] = req.seed
    return json.dumps(payload, separators=(",", ":")).encode()


# ---------------------------------------------------------------------------
# Binary codec
# ---------------------------------------------------------------------------

_HEAD = struct.Struct("<BBB")          # magic, kind, flags
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
_OBS_FIXED = struct.Struct("<IIddd")   # chunk_index, chunks_remaining, buffer, bytes, dl


def _encode_request_binary(req: DecisionRequest) -> bytes:
    sess = req.session.encode()
    if req.close:
        return _HEAD.pack(_MAGIC, _KIND_CLOSE, 0) + _U16.pack(len(sess)) + sess
    obs = req.observation
    flags = 0
    parts = []
    if req.protocol is not None:
        flags |= _FLAG_PROTOCOL
    if req.seed is not None:
        flags |= _FLAG_SEED
    if obs.last_quality is not None:
        flags |= _FLAG_LAST_QUALITY
    parts.append(_HEAD.pack(_MAGIC, _KIND_DECIDE, flags))
    parts.append(_U16.pack(len(sess)))
    parts.append(sess)
    if req.protocol is not None:
        proto = req.protocol.encode()
        parts.append(_U16.pack(len(proto)))
        parts.append(proto)
    if req.seed is not None:
        parts.append(_I64.pack(req.seed))
    parts.append(_OBS_FIXED.pack(
        obs.chunk_index, obs.chunks_remaining, obs.buffer_seconds,
        obs.last_chunk_bytes, obs.last_download_seconds,
    ))
    if obs.last_quality is not None:
        parts.append(_U16.pack(obs.last_quality))
    sizes = np.ascontiguousarray(obs.next_chunk_sizes, dtype="<f8")
    parts.append(_U16.pack(sizes.shape[0]))
    parts.append(sizes.tobytes())
    history = obs.throughput_history
    parts.append(_U16.pack(len(history)))
    if history:
        # One contiguous (size, seconds) pair block instead of 2N packs:
        # codec work is per-request and unbatchable, so it has to be flat.
        parts.append(np.asarray(history, dtype="<f8").tobytes())
    return b"".join(parts)


class _Cursor:
    """Bounds-checked sequential reads over one frame."""

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    def unpack(self, fmt: struct.Struct):
        end = self.pos + fmt.size
        if end > len(self.data):
            raise _bad("truncated binary frame")
        values = fmt.unpack_from(self.data, self.pos)
        self.pos = end
        return values

    def take(self, n: int) -> bytes:
        end = self.pos + n
        if n < 0 or end > len(self.data):
            raise _bad("truncated binary frame")
        chunk = self.data[self.pos:end]
        self.pos = end
        return chunk

    def text(self) -> str:
        (n,) = self.unpack(_U16)
        try:
            return self.take(n).decode()
        except UnicodeDecodeError:
            raise _bad("binary frame holds invalid UTF-8") from None

    def end(self) -> None:
        """Require that the frame ends where its last field did."""
        extra = len(self.data) - self.pos
        if extra:
            raise _bad(f"{extra} trailing byte(s) after the binary frame")


def _decode_request_binary(body: bytes) -> DecisionRequest:
    cur = _Cursor(body)
    magic, kind, flags = cur.unpack(_HEAD)
    if magic != _MAGIC:
        raise _bad("bad frame magic")
    if flags & ~_FLAGS_KNOWN:
        raise _bad(f"unknown frame flag bits {flags & ~_FLAGS_KNOWN:#04x}")
    session = _validate_session_id(cur.text())
    if kind == _KIND_CLOSE:
        cur.end()
        return DecisionRequest(session=session, observation=None, close=True)
    if kind != _KIND_DECIDE:
        raise _bad(f"unexpected request frame kind {kind}")
    protocol = cur.text() if flags & _FLAG_PROTOCOL else None
    seed = cur.unpack(_I64)[0] if flags & _FLAG_SEED else None
    if seed is not None and seed < 0:
        raise _bad(f"seed must be >= 0, got {seed}")
    chunk_index, chunks_remaining, buffer_s, last_bytes, last_dl = cur.unpack(_OBS_FIXED)
    last_quality = cur.unpack(_U16)[0] if flags & _FLAG_LAST_QUALITY else None
    (n_sizes,) = cur.unpack(_U16)
    if not 0 < n_sizes <= MAX_LADDER:
        raise _bad(f"next_chunk_sizes must hold 1..{MAX_LADDER} entries, got {n_sizes}")
    sizes = np.frombuffer(cur.take(n_sizes * 8), dtype="<f8").astype(float)
    (n_hist,) = cur.unpack(_U16)
    if n_hist > MAX_HISTORY:
        raise _bad(f"throughput_history longer than {MAX_HISTORY} entries")
    # The pair block decodes with one frombuffer; per-entry range checks
    # happen vectorized here and in validate_observation.
    pairs = np.frombuffer(cur.take(n_hist * 16), dtype="<f8")
    cur.end()
    history = list(zip(pairs[0::2].tolist(), pairs[1::2].tolist()))
    for name, value in (("buffer_seconds", buffer_s),
                        ("last_chunk_bytes", last_bytes),
                        ("last_download_seconds", last_dl)):
        _require_float(value, name, minimum=0.0)
    if not np.isfinite(sizes).all() or (sizes < 0.0).any():
        raise _bad("next_chunk_sizes entries must be finite and >= 0")
    if n_hist and not np.isfinite(pairs).all():
        raise _bad("throughput_history entries must be finite")
    obs = AbrObservation(
        chunk_index=chunk_index,
        last_quality=last_quality,
        buffer_seconds=buffer_s,
        last_chunk_bytes=last_bytes,
        last_download_seconds=last_dl,
        next_chunk_sizes=sizes,
        chunks_remaining=chunks_remaining,
        throughput_history=history,
    )
    return DecisionRequest(
        session=session,
        observation=validate_observation(obs),
        protocol=protocol,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Responses (both directions, both codecs)
# ---------------------------------------------------------------------------


def encode_response(resp: DecisionResponse, content_type: str = CONTENT_JSON) -> bytes:
    if content_type == CONTENT_BINARY:
        sess = resp.session.encode()
        if resp.closed:
            return _HEAD.pack(_MAGIC, _KIND_CLOSED, 0) + _U16.pack(len(sess)) + sess
        return (
            _HEAD.pack(_MAGIC, _KIND_DECISION, 0)
            + _U16.pack(len(sess)) + sess
            + _U32.pack(resp.chunk_index)
            + _U16.pack(resp.quality)
            + _F64.pack(resp.bitrate_kbps)
        )
    if resp.closed:
        payload: dict = {"session": resp.session, "closed": True}
    else:
        payload = {
            "session": resp.session,
            "chunk_index": resp.chunk_index,
            "quality": resp.quality,
            "bitrate_kbps": resp.bitrate_kbps,
        }
    return json.dumps(payload, separators=(",", ":")).encode()


def decode_response(body: bytes, content_type: str = CONTENT_JSON) -> DecisionResponse:
    """Client-side decode; raises :class:`ServeError` on error frames."""
    if content_type == CONTENT_BINARY:
        cur = _Cursor(body)
        magic, kind, _flags = cur.unpack(_HEAD)
        if magic != _MAGIC:
            raise _bad("bad frame magic")
        if kind == _KIND_ERROR:
            (status,) = cur.unpack(_U16)
            code = cur.text()
            raise ServeError(status, code, cur.text())
        if kind == _KIND_CLOSED:
            return DecisionResponse(session=cur.text(), closed=True)
        if kind != _KIND_DECISION:
            raise _bad(f"unexpected response frame kind {kind}")
        session = cur.text()
        (chunk_index,) = cur.unpack(_U32)
        (quality,) = cur.unpack(_U16)
        (bitrate,) = cur.unpack(_F64)
        return DecisionResponse(session, chunk_index, quality, bitrate)
    data = json.loads(body)
    if "error" in data:
        err = data["error"]
        raise ServeError(int(err.get("status", 500)),
                         err.get("code", "error"), err.get("message", ""))
    if data.get("closed"):
        return DecisionResponse(session=data["session"], closed=True)
    return DecisionResponse(
        session=data["session"],
        chunk_index=int(data["chunk_index"]),
        quality=int(data["quality"]),
        bitrate_kbps=float(data["bitrate_kbps"]),
    )


def encode_error(error: ServeError, content_type: str = CONTENT_JSON) -> bytes:
    if content_type == CONTENT_BINARY:
        code = error.code.encode()
        message = error.message.encode()
        return (
            _HEAD.pack(_MAGIC, _KIND_ERROR, 0)
            + _U16.pack(error.status)
            + _U16.pack(len(code)) + code
            + _U16.pack(len(message)) + message
        )
    payload = {"error": {"status": error.status, "code": error.code,
                         "message": error.message}}
    return json.dumps(payload, separators=(",", ":")).encode()


def decode_request(body: bytes, content_type: str = CONTENT_JSON) -> DecisionRequest:
    """Parse and shape-validate one request frame."""
    if len(body) > MAX_BODY_BYTES:
        raise ServeError(413, "too-large", f"request body over {MAX_BODY_BYTES} bytes")
    base = content_type.split(";", 1)[0].strip().lower()
    if base == CONTENT_BINARY:
        return _decode_request_binary(body)
    if base in (CONTENT_JSON, ""):
        return _decode_request_json(body)
    raise ServeError(415, "unsupported-media-type",
                     f"unsupported content type {content_type!r}")


def encode_request(req: DecisionRequest, content_type: str = CONTENT_JSON) -> bytes:
    """Client-side encode (the loadgen's half of the codec)."""
    if content_type == CONTENT_BINARY:
        return _encode_request_binary(req)
    return _encode_request_json(req)
