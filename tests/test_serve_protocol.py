"""Tests for the serve wire schema (repro.serve.protocol): both codecs."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.abr.simulator import AbrObservation
from repro.serve import (
    CONTENT_BINARY,
    CONTENT_JSON,
    DecisionRequest,
    DecisionResponse,
    ServeError,
    decode_request,
    decode_response,
    encode_error,
    encode_request,
    encode_response,
)

CODECS = (CONTENT_JSON, CONTENT_BINARY)


def fresh_obs(n=6):
    return AbrObservation(
        chunk_index=0, last_quality=None, buffer_seconds=0.0,
        last_chunk_bytes=0.0, last_download_seconds=0.0,
        next_chunk_sizes=np.linspace(1e5, 2e6, n),
        chunks_remaining=10, throughput_history=[],
    )


def midstream_obs(n=6):
    # Awkward floats on purpose: round-tripping must be bitwise.
    return AbrObservation(
        chunk_index=7, last_quality=3, buffer_seconds=11.76543219876,
        last_chunk_bytes=1234567.89012345, last_download_seconds=1.0 / 3.0,
        next_chunk_sizes=np.array([0.1, 1 / 7, np.nextafter(2e6, 3e6), 3e6, 4e6, 5e6]),
        chunks_remaining=3,
        throughput_history=[(1e5, 0.1), (2e5, 1 / 3), (3.3e5, 0.777777777777)],
    )


def assert_obs_equal(a: AbrObservation, b: AbrObservation):
    assert a.chunk_index == b.chunk_index
    assert a.last_quality == b.last_quality
    assert a.buffer_seconds == b.buffer_seconds  # bitwise, not approx
    assert a.last_chunk_bytes == b.last_chunk_bytes
    assert a.last_download_seconds == b.last_download_seconds
    assert a.next_chunk_sizes.tolist() == b.next_chunk_sizes.tolist()
    assert a.chunks_remaining == b.chunks_remaining
    assert list(a.throughput_history) == [tuple(p) for p in b.throughput_history]


class TestRequestRoundTrip:
    @pytest.mark.parametrize("content_type", CODECS)
    def test_fresh_request(self, content_type):
        req = DecisionRequest(session="s-1", observation=fresh_obs(),
                              protocol="mpc", seed=42)
        back = decode_request(encode_request(req, content_type), content_type)
        assert back.session == "s-1"
        assert back.protocol == "mpc"
        assert back.seed == 42
        assert back.close is False
        assert_obs_equal(req.observation, back.observation)

    @pytest.mark.parametrize("content_type", CODECS)
    def test_midstream_request_bitwise(self, content_type):
        req = DecisionRequest(session="p/0", observation=midstream_obs())
        back = decode_request(encode_request(req, content_type), content_type)
        assert back.protocol is None and back.seed is None
        assert_obs_equal(req.observation, back.observation)

    @pytest.mark.parametrize("content_type", CODECS)
    def test_close_request(self, content_type):
        req = DecisionRequest(session="bye", observation=None, close=True)
        back = decode_request(encode_request(req, content_type), content_type)
        assert back.close is True
        assert back.session == "bye"
        assert back.observation is None

    def test_content_type_parameters_ignored(self):
        body = encode_request(DecisionRequest("s", fresh_obs(), protocol="bb"))
        back = decode_request(body, "application/json; charset=utf-8")
        assert back.protocol == "bb"


class TestResponseRoundTrip:
    @pytest.mark.parametrize("content_type", CODECS)
    def test_decision(self, content_type):
        resp = DecisionResponse(session="s", chunk_index=9, quality=4,
                                bitrate_kbps=2850.0)
        back = decode_response(encode_response(resp, content_type), content_type)
        assert back == resp

    @pytest.mark.parametrize("content_type", CODECS)
    def test_closed_ack(self, content_type):
        resp = DecisionResponse(session="s", closed=True)
        back = decode_response(encode_response(resp, content_type), content_type)
        assert back.closed is True and back.session == "s"

    @pytest.mark.parametrize("content_type", CODECS)
    def test_error_frame_raises(self, content_type):
        err = ServeError(409, "out-of-order", "expects chunk 3, got 5")
        with pytest.raises(ServeError) as exc_info:
            decode_response(encode_error(err, content_type), content_type)
        assert exc_info.value.status == 409
        assert exc_info.value.code == "out-of-order"
        assert "chunk 3" in exc_info.value.message


class TestValidation:
    def reject(self, obs, content_type=CONTENT_JSON, session="s", **kw):
        body = encode_request(
            DecisionRequest(session=session, observation=obs, **kw), content_type
        )
        with pytest.raises(ServeError) as exc_info:
            decode_request(body, content_type)
        assert exc_info.value.status == 400
        return exc_info.value

    @pytest.mark.parametrize("content_type", CODECS)
    def test_fresh_start_rules(self, content_type):
        dirty = dataclasses.replace(fresh_obs(), buffer_seconds=4.0)
        err = self.reject(dirty, content_type)
        assert "fresh" in err.message

    @pytest.mark.parametrize("content_type", CODECS)
    def test_midstream_needs_history(self, content_type):
        obs = dataclasses.replace(midstream_obs(), throughput_history=[])
        self.reject(obs, content_type)

    def test_midstream_needs_last_quality(self):
        obs = dataclasses.replace(midstream_obs(), last_quality=None)
        self.reject(obs)

    def test_last_quality_outside_ladder(self):
        obs = dataclasses.replace(midstream_obs(), last_quality=17)
        self.reject(obs)

    def test_nothing_left_to_decide(self):
        obs = dataclasses.replace(midstream_obs(), chunks_remaining=0)
        self.reject(obs)

    def test_session_id_too_long(self):
        self.reject(fresh_obs(), session="x" * 200)

    def test_session_id_empty(self):
        body = json.dumps({"session": "", "observation": {}}).encode()
        with pytest.raises(ServeError):
            decode_request(body)

    def test_nonfinite_floats_rejected(self):
        body = json.dumps({
            "session": "s",
            "observation": {"chunk_index": 0, "buffer_seconds": float("nan")},
        }).encode()
        with pytest.raises(ServeError):
            decode_request(body)

    def test_invalid_json(self):
        with pytest.raises(ServeError) as exc_info:
            decode_request(b"{nope")
        assert exc_info.value.status == 400

    def test_truncated_binary_frame(self):
        body = encode_request(
            DecisionRequest("s", midstream_obs()), CONTENT_BINARY
        )
        with pytest.raises(ServeError):
            decode_request(body[: len(body) // 2], CONTENT_BINARY)

    def test_bad_magic(self):
        with pytest.raises(ServeError):
            decode_request(b"\x00\x01\x02rest", CONTENT_BINARY)

    def test_binary_unknown_flag_bits_rejected(self):
        body = bytearray(encode_request(
            DecisionRequest("s", midstream_obs(), protocol="bb"), CONTENT_BINARY
        ))
        body[2] |= 0x80  # the flags byte
        with pytest.raises(ServeError, match="unknown frame flag bits 0x80") as exc_info:
            decode_request(bytes(body), CONTENT_BINARY)
        assert exc_info.value.status == 400

    @pytest.mark.parametrize("close", ["false", [0], 0, 1, None],
                             ids=["string", "list", "zero", "one", "null"])
    def test_json_close_must_be_boolean(self, close):
        body = json.dumps({"session": "s", "close": close}).encode()
        with pytest.raises(ServeError, match="close must be a JSON boolean") as exc_info:
            decode_request(body)
        assert exc_info.value.status == 400

    @given(close=st.booleans(), suffix=st.binary(min_size=1, max_size=64))
    @settings(max_examples=50, deadline=None)
    def test_binary_frame_with_any_suffix_rejected(self, close, suffix):
        req = DecisionRequest("s", None if close else midstream_obs(), close=close)
        body = encode_request(req, CONTENT_BINARY) + suffix
        with pytest.raises(ServeError, match=f"^{len(suffix)} trailing byte") as exc_info:
            decode_request(body, CONTENT_BINARY)
        assert exc_info.value.status == 400

    def test_unsupported_content_type(self):
        with pytest.raises(ServeError) as exc_info:
            decode_request(b"{}", "text/plain")
        assert exc_info.value.status == 415

    def test_body_too_large(self):
        with pytest.raises(ServeError) as exc_info:
            decode_request(b"x" * (1 << 21))
        assert exc_info.value.status == 413
