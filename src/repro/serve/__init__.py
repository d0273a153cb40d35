"""repro.serve: an asyncio ABR decision service with request coalescing.

Production ABR runs as a decision server the player queries once per
chunk; this package puts that serving boundary on top of the repo's
protocol stack.  The perf centerpiece is the micro-batching coalescer:
concurrent in-flight requests are drained in windows and each window is
served with **one** batched policy evaluation via the lane adapters, so
requests/sec scales with the batched engine instead of per-request
policy-call overhead -- while every served decision stays bitwise
identical to the inline policy call (see ``docs/architecture.md``).

Layout: :mod:`~repro.serve.protocol` (wire schema, JSON + binary
codecs), :mod:`~repro.serve.state` (session store),
:mod:`~repro.serve.coalescer` (micro-batcher),
:mod:`~repro.serve.service` (lifecycle + backends),
:mod:`~repro.serve.http` (asyncio HTTP server),
:mod:`~repro.serve.loadgen` (closed-loop load generator + identity
verification).
"""

from repro.serve.coalescer import Coalescer
from repro.serve.http import HttpServer
from repro.serve.loadgen import (
    HttpTransport,
    InprocTransport,
    LoadReport,
    reference_decisions,
    run_loadgen,
)
from repro.serve.protocol import (
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
from repro.serve.service import (
    CachedBatchedMPC,
    DecisionService,
    default_protocols,
    make_demo_pensieve,
)
from repro.serve.state import RemoteSession, SessionState, SessionStore

__all__ = [
    "CONTENT_BINARY",
    "CONTENT_JSON",
    "CachedBatchedMPC",
    "Coalescer",
    "DecisionRequest",
    "DecisionResponse",
    "DecisionService",
    "HttpServer",
    "HttpTransport",
    "InprocTransport",
    "LoadReport",
    "RemoteSession",
    "ServeError",
    "SessionState",
    "SessionStore",
    "decode_request",
    "decode_response",
    "default_protocols",
    "encode_error",
    "encode_request",
    "encode_response",
    "make_demo_pensieve",
    "reference_decisions",
    "run_loadgen",
]
