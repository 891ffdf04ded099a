"""The scheduler wire's transport: one HTTP/1.1 codec, three speakers.

``tests/test_service.py`` covers what the service *says*; this file
covers how the bytes move: the shared :mod:`repro.service.http` codec
(chunk-boundary invariance, limits, framing errors), the protocol-based
server (pipelining order, 400-and-close on malformed framing, one
``transport.write`` per response, half-closed peers), the single-send
client (one ``sendall`` per request, reconnect-once, ``Connection:
close``), interoperation with the stdlib HTTP clients, and the ``serve``
CLI's SIGTERM drain as a real subprocess.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import logging
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import urllib.request
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.service import (
    ENDPOINTS,
    SchedulerClient,
    SchedulerService,
    ServiceConfig,
    serve_in_thread,
    storm,
)
from repro.service.app import _Connection
from repro.service.http import (
    MAX_HEAD_BYTES,
    MAX_HEADER_LINES,
    Framer,
    FramingError,
    build_request,
    build_response,
    request_line,
    status_line,
)

from .test_service import tiny_campaign

SERVICE_SRC = Path(__file__).resolve().parents[1] / "src" / "repro" / "service"


@pytest.fixture
def service():
    handle = serve_in_thread(tiny_campaign())
    try:
        yield handle
    finally:
        handle.stop()


def read_responses(sock: socket.socket, n: int) -> list:
    """Read exactly ``n`` whole responses off a raw socket."""
    framer = Framer(status_line)
    messages = []
    while len(messages) < n:
        message = framer.next_message()
        if message is None:
            chunk = sock.recv(65536)
            assert chunk, f"connection closed after {len(messages)}/{n} responses"
            framer.feed(chunk)
        else:
            messages.append(message)
    assert framer.buffered == 0, "bytes beyond the expected responses"
    return messages


def raw_exchange(address, payload: bytes) -> tuple[bytes, bool]:
    """Send raw bytes; return (everything received, server closed cleanly)."""
    with socket.create_connection(address, timeout=10) as sock:
        sock.sendall(payload)
        received = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return received, True
            received += chunk


# -- the codec ---------------------------------------------------------------


json_bodies = st.dictionaries(
    st.text(min_size=1, max_size=8),
    st.one_of(st.integers(), st.floats(allow_nan=False), st.text(max_size=12), st.none()),
    max_size=4,
).map(lambda d: json.dumps(d).encode())
requests = st.tuples(
    st.sampled_from(["GET", "POST"]),
    st.sampled_from(["/", "/v1/status", "/v1/request-work", "/v1/heartbeat"]),
    st.one_of(st.just(b""), json_bodies),
)


def cut(stream: bytes, cuts: list[int]) -> list[bytes]:
    bounds = sorted({0, len(stream), *(c % (len(stream) + 1) for c in cuts)})
    return [stream[a:b] for a, b in zip(bounds, bounds[1:])]


def parse_chunks(framer: Framer, chunks: list[bytes]) -> list:
    messages = []
    for chunk in chunks:
        framer.feed(chunk)
        while (message := framer.next_message()) is not None:
            messages.append(message)
    return messages


class TestCodec:
    @given(st.lists(requests, min_size=1, max_size=6), st.lists(st.integers(0), max_size=12))
    @example([("POST", "/v1/heartbeat", b'{"host": 7}')] * 2, [35, 36, 37, 38, 70])
    @settings(max_examples=200, deadline=None)
    def test_request_stream_is_chunk_boundary_invariant(self, sent, cuts):
        """N requests cut anywhere parse to the same N requests — also
        inside the ``\\r\\n\\r\\n`` terminator and in the middle of a body."""
        stream = b"".join(build_request(m, p, b, "h:1") for m, p, b in sent)
        whole = parse_chunks(Framer(request_line), [stream])
        pieces = parse_chunks(Framer(request_line), cut(stream, cuts))
        assert pieces == whole
        assert [(m.start[0], m.start[1], m.body) for m in whole] == sent
        assert all(m.keep_alive for m in whole)

    def test_split_inside_terminator_and_mid_json(self):
        request = build_request("POST", "/v1/heartbeat", b'{"host": 7}', "h:1")
        end = request.index(b"\r\n\r\n")
        for at in (end + 1, end + 2, end + 3, len(request) - 4):
            framer = Framer(request_line)
            framer.feed(request[:at])
            assert framer.next_message() is None
            framer.feed(request[at:])
            message = framer.next_message()
            assert message.start == ("POST", "/v1/heartbeat", "HTTP/1.1")
            assert json.loads(message.body) == {"host": 7}
            assert framer.buffered == 0

    @given(
        st.lists(
            st.tuples(
                st.sampled_from([200, 400, 404, 410, 500, 503]),
                json_bodies,
                st.booleans(),
                st.dictionaries(st.just("Retry-After"), st.just("5"), max_size=1),
            ),
            min_size=1, max_size=5,
        ),
        st.lists(st.integers(0), max_size=10),
    )
    @settings(max_examples=100, deadline=None)
    def test_response_stream_round_trips(self, sent, cuts):
        stream = b"".join(
            build_response(status, body, keep_alive=keep, headers=extra)
            for status, body, keep, extra in sent
        )
        got = parse_chunks(Framer(status_line), cut(stream, cuts))
        assert [(m.start[1], m.body, m.keep_alive) for m in got] == [
            (status, body, keep) for status, body, keep, _ in sent
        ]

    def test_request_is_one_buffer_with_exact_length(self):
        body = b'{"host":3,"t":1.5}'
        request = build_request("POST", "/v1/request-work", body, "127.0.0.1:80")
        head, _, tail = request.partition(b"\r\n\r\n")
        assert tail == body
        assert b"Content-Length: %d" % len(body) in head
        assert head.startswith(b"POST /v1/request-work HTTP/1.1\r\nHost: 127.0.0.1:80")

    @pytest.mark.parametrize(
        "head, match",
        [
            (b"POST /v1/heartbeat HTTP/1.1\r\nContent-Length: abc", "bad Content-Length"),
            (b"POST /v1/heartbeat HTTP/1.1\r\nContent-Length: -5", "bad Content-Length"),
            (b"POST /v1/heartbeat HTTP/1.1\r\nContent-Length: " + b"9" * 5000,
             "bad Content-Length"),
            (b"POST /v1/heartbeat HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 3",
             "bad Content-Length"),
            (b"POST /v1/heartbeat HTTP/1.1\r\nContent-Length: 4097", "exceeds the 4096-byte"),
            (b"POST /v1/heartbeat HTTP/1.1\r\nTransfer-Encoding: chunked", "Transfer-Encoding"),
            (b"GARBAGE", "malformed request line"),
            (b"GET / HTTP/1.1 extra", "malformed request line"),
            (b"GET / SPDY/3", "malformed request line"),
            (b"GET / HTTP/1.1" + b"\r\nX-Pad: 1" * (MAX_HEADER_LINES + 1), "header lines"),
        ],
    )
    def test_malformed_heads_are_framing_errors(self, head, match):
        framer = Framer(request_line, max_body_bytes=4096)
        framer.feed(head + b"\r\n\r\n")
        with pytest.raises(FramingError, match=match):
            framer.next_message()

    def test_overlong_head_is_refused_before_its_terminator_arrives(self):
        framer = Framer(request_line)
        framer.feed(b"GET / HTTP/1.1\r\nX-Pad: " + b"a" * MAX_HEAD_BYTES)
        with pytest.raises(FramingError, match="head exceeds"):
            framer.next_message()

    def test_header_limit_is_inclusive(self):
        framer = Framer(request_line)
        framer.feed(b"GET / HTTP/1.1" + b"\r\nX-Pad: 1" * MAX_HEADER_LINES + b"\r\n\r\n")
        assert framer.next_message().start[:2] == ("GET", "/")

    @pytest.mark.parametrize(
        "stream",
        [
            b"GET /v1/status HTTP/1.1\n\n",
            b"GET /v1/status HTTP/1.1\nHost: t\n\n",
            b"GET /v1/status HTTP/1.1\n\r\n",  # bare LF, then an empty CRLF line
            b"GET /v1/status HTTP/1.1\r\nHost: t\r\n\n",
        ],
    )
    def test_bare_line_feeds_end_lines_too(self, stream):
        # `printf 'GET /v1/status HTTP/1.1\n\n' | nc`; the CRLF request
        # pipelined behind it must not be swallowed into the first head
        follow_up = build_request("POST", "/v1/heartbeat", b'{"a":"\n\n"}', "t")
        for chunks in ([stream + follow_up], cut(stream + follow_up, list(range(len(stream) + 4)))):
            first, second = parse_chunks(Framer(request_line), chunks)
            assert first == (("GET", "/v1/status", "HTTP/1.1"), True, b"")
            assert second.start[1] == "/v1/heartbeat" and second.body == b'{"a":"\n\n"}'

    def test_bare_lf_head_with_a_body(self):
        framer = Framer(request_line)
        framer.feed(b"POST /v1/heartbeat HTTP/1.1\nContent-Length: 10\nConnection: close\n\n")
        assert framer.next_message() is None
        framer.feed(b'{"host":1}')
        message = framer.next_message()
        assert message.body == b'{"host":1}' and not message.keep_alive
        assert framer.buffered == 0

    def test_malformed_status_line(self):
        framer = Framer(status_line)
        framer.feed(b"SSH-2.0-OpenSSH_9.6\r\n\r\n")
        with pytest.raises(FramingError, match="malformed status line"):
            framer.next_message()


# -- the server --------------------------------------------------------------


MALFORMED = {
    "content-length-not-a-number":
        b"POST /v1/heartbeat HTTP/1.1\r\nContent-Length: abc\r\n\r\n",
    "content-length-negative":
        b"POST /v1/heartbeat HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
    "unparseable-request-line": b"NOT-HTTP\r\n\r\n",
    "too-many-header-lines":
        b"GET / HTTP/1.1" + b"\r\nX-Pad: 1" * (MAX_HEADER_LINES + 1) + b"\r\n\r\n",
    "over-long-head": b"GET / HTTP/1.1\r\nX-Pad: " + b"a" * (MAX_HEAD_BYTES + 1),
    "body-above-max-body-bytes":
        b"POST /v1/heartbeat HTTP/1.1\r\nContent-Length: 4097\r\n\r\n",
}


class TestMalformedFraming:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_answers_400_closes_and_stays_up(self, case, caplog):
        handle = serve_in_thread(tiny_campaign(), config=ServiceConfig(max_body_bytes=4096))
        try:
            with caplog.at_level(logging.WARNING):
                received, closed = raw_exchange(handle.address, MALFORMED[case])
                (reply,) = parse_chunks(Framer(status_line), [received])
                assert closed
                assert reply.start[1] == 400
                assert not reply.keep_alive  # Connection: close
                payload = json.loads(reply.body)
                assert payload["error"] == "bad-request" and payload["detail"]
                # ...and the next connection is served as if nothing happened
                client = SchedulerClient(*handle.address)
                assert client.heartbeat(host=1)["ok"]
                # (the bad request was never routed: heartbeat + this status)
                assert client.status()["requests_total"] == 2
                client.close()
            assert not caplog.records, [r.getMessage() for r in caplog.records]
        finally:
            handle.stop()

    def test_valid_requests_before_the_bad_one_are_answered(self, service):
        good = build_request("POST", "/v1/heartbeat", b'{"host":5}', "t")
        received, closed = raw_exchange(service.address, good + MALFORMED["unparseable-request-line"] + good)
        first, second = parse_chunks(Framer(status_line), [received])
        assert closed
        assert first.start[1] == 200 and json.loads(first.body)["host"] == 5
        assert second.start[1] == 400  # and nothing after it is served


class TestServerTransport:
    def test_pipelined_requests_are_answered_in_order(self):
        # A slow writer keeps queued mutations in flight while the
        # read-only requests pipelined behind them wait their turn.
        handle = serve_in_thread(
            tiny_campaign(), config=ServiceConfig(writer_delay_s=0.01)
        )
        calls = []
        for host in range(6):
            calls.append(("/v1/heartbeat", {"host": host}))
            calls.append(("/v1/request-work", {"host": host, "t": float(host)}))
        try:
            with socket.create_connection(handle.address, timeout=10) as sock:
                sock.sendall(b"".join(
                    build_request("POST", path, json.dumps(body).encode(), "t")
                    for path, body in calls
                ))
                replies = read_responses(sock, len(calls))
        finally:
            handle.stop()
        tokens = []
        for (path, body), reply in zip(calls, replies):
            payload = json.loads(reply.body)
            assert reply.start[1] == 200 and reply.keep_alive
            if path == "/v1/heartbeat":
                assert payload["host"] == body["host"]
            else:
                tokens.append(payload["assignment"]["token"])
        assert tokens == sorted(tokens) and len(set(tokens)) == 6

    def test_pipelining_past_the_read_ahead_limit_loses_nothing(self, service):
        n = 3000  # ~200 kB of requests: the connection pauses reading, then resumes
        stream = b"".join(
            build_request("POST", "/v1/request-work", b'{"host":%d,"t":0}' % i, "t")
            for i in range(n)
        )
        with socket.create_connection(service.address, timeout=30) as sock:
            sender = threading.Thread(target=sock.sendall, args=(stream,))
            sender.start()
            replies = read_responses(sock, n)
            sender.join(timeout=30)
        assert not sender.is_alive()
        assert [r.start[1] for r in replies] == [200] * n
        assert service.service.requests_total == n

    def test_one_transport_write_per_response(self, service, monkeypatch):
        writes = []

        class CountingTransport:
            def __init__(self, inner):
                self._inner = inner

            def write(self, data):
                writes.append(bytes(data))
                self._inner.write(data)

            def __getattr__(self, name):
                return getattr(self._inner, name)

        made = _Connection.connection_made
        monkeypatch.setattr(
            _Connection, "connection_made",
            lambda self, transport: made(self, CountingTransport(transport)),
        )
        client = SchedulerClient(*service.address)
        client.discover()
        client.heartbeat(host=1)
        token = client.request_work(host=0, t=1.0)["assignment"]["token"]
        client.report_result(token, True, 1.0, t=2.0)
        client.hosts()
        client.metrics_text()
        assert client._call("GET", "/nope")[0] == 404
        with pytest.raises(Exception):
            client.request_work(host="x")  # 400 from the writer loop
        client.close()
        assert len(writes) == 8
        assert all(w.startswith(b"HTTP/1.1 ") for w in writes)

    def test_half_closed_peer_still_gets_its_answers(self):
        # `printf ... | nc`: pipeline, half-close, then read the answers.
        handle = serve_in_thread(
            tiny_campaign(), config=ServiceConfig(writer_delay_s=0.05)
        )
        try:
            with socket.create_connection(handle.address, timeout=10) as sock:
                sock.sendall(b"".join(
                    build_request(
                        "POST", "/v1/request-work", b'{"host":%d,"t":1.0}' % host, "t"
                    )
                    for host in range(2)
                ))
                sock.shutdown(socket.SHUT_WR)
                replies = read_responses(sock, 2)
                assert sock.recv(1) == b""  # then the service closes its side
        finally:
            handle.stop()
        assert [json.loads(r.body)["assignment"]["token"] for r in replies] == [1, 2]

    def test_bare_lf_request_is_answered(self, service):
        received, closed = raw_exchange(
            service.address, b"GET /v1/status HTTP/1.1\nConnection: close\n\n"
        )
        (reply,) = parse_chunks(Framer(status_line), [received])
        assert closed and reply.start[1] == 200
        assert json.loads(reply.body)["requests_total"] == 1

    def test_half_close_while_not_reading_keeps_the_held_back_answers(self):
        # The peer stopped reading (pause_writing), pipelined two more
        # requests and half-closed: nothing may be dropped, and the
        # transport closes only after the last answer.
        class FakeTransport:
            def __init__(self):
                self.writes, self.closing, self.aborted = [], False, False

            def write(self, data):
                self.writes.append(bytes(data))

            def is_closing(self):
                return self.closing

            def close(self):
                self.closing = True

            def abort(self):  # pragma: no cover - would be the bug
                self.aborted = True

            def pause_reading(self):
                pass

            def resume_reading(self):
                pass

        async def scenario():
            svc = SchedulerService(tiny_campaign())
            conn, transport = _Connection(svc), FakeTransport()
            conn.connection_made(transport)
            request = build_request("GET", "/v1/status", b"", "t")
            conn.data_received(request)
            assert len(transport.writes) == 1
            conn.pause_writing()
            conn.data_received(request + request)
            assert len(transport.writes) == 1  # held back: the peer is not reading
            assert conn.eof_received() is True  # "keep the transport open"
            assert not transport.closing
            conn.resume_writing()
            assert len(transport.writes) == 3 and transport.closing
            assert not transport.aborted
            # an idle connection that half-closes is simply closed
            idle, idle_transport = _Connection(svc), FakeTransport()
            idle.connection_made(idle_transport)
            assert not idle.eof_received()
            for c in (conn, idle):
                c.connection_lost(None)
            return transport.writes

        writes = asyncio.run(scenario())
        totals = [
            json.loads(m.body)["requests_total"]
            for m in parse_chunks(Framer(status_line), writes)
        ]
        assert totals == [1, 2, 3]

    def test_bad_field_on_a_read_only_op_is_a_400_not_a_dead_connection(self, service):
        client = SchedulerClient(*service.address)
        status, payload = client._call("POST", "/v1/heartbeat", {"host": "x"})
        assert status == 400 and payload["error"] == "bad-request"
        assert client.heartbeat(host=2)["host"] == 2  # same connection, still up
        client.close()

    def test_connection_close_request_is_honoured(self, service):
        request = (
            b"GET /v1/status HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
        )
        received, closed = raw_exchange(service.address, request)
        (reply,) = parse_chunks(Framer(status_line), [received])
        assert closed and reply.start[1] == 200 and not reply.keep_alive

    def test_shutdown_closes_idle_keep_alive_connections(self):
        handle = serve_in_thread(tiny_campaign())
        socks = [socket.create_connection(handle.address, timeout=10) for _ in range(3)]
        try:
            client = SchedulerClient(*handle.address)
            client.heartbeat(host=1)  # a connection that has been used, too
            handle.stop()
            for sock in socks:
                assert sock.recv(1) == b""
            assert not handle.service._conns
        finally:
            for sock in socks:
                sock.close()
            client.close()


class TestWriterSurvives:
    """The writer loop answers queued mutations itself and then serves
    that connection's next pipelined request, so whatever that request
    does wrong happens *inside the writer task* — and must not end it."""

    def request_work(self, host: int) -> bytes:
        return build_request(
            "POST", "/v1/request-work", b'{"host":%d,"t":1.0}' % host, "t"
        )

    def assert_still_serving(self, handle) -> None:
        client = SchedulerClient(*handle.address, timeout=10)
        assert client.request_work(host=9, t=2.0)["assignment"] is not None
        client.close()
        handle.stop(timeout=10)  # drain() returns: the writer is alive
        assert handle.service._writer_task.cancelled()

    def test_deeply_nested_json_behind_a_mutation_is_a_400(self):
        handle = serve_in_thread(tiny_campaign())
        bomb = build_request("POST", "/v1/heartbeat", b"[" * 100_000, "t")
        with socket.create_connection(handle.address, timeout=10) as sock:
            sock.sendall(self.request_work(0) + bomb + self.request_work(1))
            first, second, third = read_responses(sock, 3)
        assert first.start[1] == 200 and third.start[1] == 200
        assert second.start[1] == 400 and second.keep_alive  # well framed: stays open
        assert json.loads(second.body)["error"] == "bad-request"
        self.assert_still_serving(handle)

    def test_a_bug_serving_the_next_pipelined_request_costs_that_connection_only(
        self, caplog
    ):
        handle = serve_in_thread(tiny_campaign())
        handled = handle.service._handle

        def buggy(method, path, raw_body, respond):
            if path == "/boom":
                raise RuntimeError("boom")
            handled(method, path, raw_body, respond)

        handle.service._handle = buggy
        boom = build_request("GET", "/boom", b"", "t")
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            received, _ = raw_exchange(
                handle.address, self.request_work(0) + boom + self.request_work(1)
            )
            (reply,) = parse_chunks(Framer(status_line), [received])
            assert json.loads(reply.body)["assignment"]["token"] == 1
            self.assert_still_serving(handle)
        assert [r.getMessage().splitlines()[0] for r in caplog.records] == [
            "scheduler connection failed"
        ]
        assert handle.service.requests_total == 2  # the third was never served

    def test_a_bug_between_apply_and_respond_is_a_500(self):
        handle = serve_in_thread(tiny_campaign())

        class BrokenSketch:
            def observe(self, value):
                raise RuntimeError("sketch is broken")

        sketches = handle.service._latency
        working, sketches["request_work"] = sketches["request_work"], BrokenSketch()
        client = SchedulerClient(*handle.address, timeout=10)
        status, payload = client._call("POST", "/v1/request-work", {"host": 0, "t": 1.0})
        assert status == 500 and "sketch is broken" in payload["detail"]
        sketches["request_work"] = working
        client.close()
        self.assert_still_serving(handle)


# -- the client --------------------------------------------------------------


class CountingSocket:
    """Wraps the client's socket: counts sends, caps what one recv returns."""

    def __init__(self, inner: socket.socket, recv_cap: int = 65536) -> None:
        self._inner = inner
        self.recv_cap = recv_cap
        self.sendalls: list[bytes] = []
        self.recvs = 0

    def sendall(self, data):
        self.sendalls.append(bytes(data))
        return self._inner.sendall(data)

    def send(self, data):  # pragma: no cover - the guard itself
        raise AssertionError("the client must use one sendall per request")

    def recv(self, n):
        self.recvs += 1
        return self._inner.recv(min(n, self.recv_cap))

    def __getattr__(self, name):
        return getattr(self._inner, name)


class ScriptedServer:
    """A listening socket whose accepted connections follow a script.

    Each entry is what to do with one accepted connection:
    ``"answer-then-hang-up"`` (answer one request, then close),
    ``"hang-up"`` (close without answering), ``"answer-close-header"``
    (answer every request with ``Connection: close`` but leave the socket
    open) or ``"serve"`` (answer every request, keep-alive).
    """

    def __init__(self, script: list[str]) -> None:
        self.script = list(script)
        self.accepted = 0
        self.requests: list[tuple] = []
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.address = self._listener.getsockname()
        self._open: list[socket.socket] = []
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        for behaviour in self.script:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            self.accepted += 1
            self._open.append(conn)
            if behaviour == "hang-up":
                conn.close()
                continue
            framer = Framer(request_line)
            while True:
                while (message := framer.next_message()) is None:
                    chunk = conn.recv(65536)
                    if not chunk:
                        break
                    framer.feed(chunk)
                if message is None:
                    break
                self.requests.append(message.start[:2])
                keep = behaviour != "answer-close-header"
                conn.sendall(build_response(200, b'{"ok":true}', keep_alive=keep))
                if behaviour == "answer-then-hang-up":
                    conn.close()
                    break

    def close(self) -> None:
        self._listener.close()
        for conn in self._open:
            conn.close()
        self._thread.join(timeout=5)
        assert not self._thread.is_alive()


class TestClientTransport:
    def test_one_sendall_per_request(self, service):
        client = SchedulerClient(*service.address)
        client.discover()  # connects
        sock = client._sock = CountingSocket(client._sock)
        client.heartbeat(host=1)
        token = client.request_work(host=0, t=1.0)["assignment"]["token"]
        client.report_result(token, True, 1.0, t=2.0)
        client.status()
        assert len(sock.sendalls) == 4
        # head and JSON body travel together
        assert sock.sendalls[1].startswith(b"POST /v1/request-work HTTP/1.1\r\n")
        assert sock.sendalls[1].endswith(b'{"host":0,"t":1.0}')
        client.close()

    def test_response_larger_than_one_recv_arrives_whole(self, service):
        reference = SchedulerClient(*service.address)
        reference.request_work(host=0, t=1.0)
        client = SchedulerClient(*service.address)
        client.discover()
        sock = client._sock = CountingSocket(client._sock, recv_cap=64)
        hosts = client.hosts()
        after_hosts = sock.recvs
        metrics = client.metrics_text()
        assert after_hosts > 4 and sock.recvs - after_hosts > 4
        assert hosts == reference.hosts()
        assert "service_rpc_wall_s" in metrics and metrics.endswith("\n")
        assert client.status()["n_workunits"] == reference.status()["n_workunits"]
        client.close()
        reference.close()

    def test_reconnects_exactly_once_on_a_stale_keep_alive(self):
        server = ScriptedServer(["answer-then-hang-up", "serve"])
        try:
            client = SchedulerClient(*server.address, timeout=5)
            assert client._call("GET", "/v1/status") == (200, {"ok": True})
            # the first connection is dead now; the client finds out on
            # its next request and reconnects — once
            assert client._call("POST", "/v1/heartbeat", {"host": 1}) == (200, {"ok": True})
            assert server.accepted == 2
            assert server.requests == [("GET", "/v1/status"), ("POST", "/v1/heartbeat")]
            client.close()
        finally:
            server.close()

    def test_raises_on_the_second_failure(self):
        server = ScriptedServer(["answer-then-hang-up", "hang-up", "serve"])
        try:
            client = SchedulerClient(*server.address, timeout=5)
            client._call("GET", "/v1/status")
            with pytest.raises(ConnectionError):
                client._call("GET", "/v1/status")
            assert server.accepted == 2  # one reconnect, not a retry loop
            assert client._sock is None
            # the client is still usable afterwards
            assert client._call("GET", "/v1/status")[0] == 200
            assert server.accepted == 3
            client.close()
        finally:
            server.close()

    def test_server_sent_connection_close_is_honoured(self):
        server = ScriptedServer(["answer-close-header", "serve"])
        try:
            client = SchedulerClient(*server.address, timeout=5)
            assert client._call("GET", "/v1/status")[0] == 200
            assert client._sock is None  # closed our side, as told
            assert client._call("GET", "/v1/status")[0] == 200
            assert server.accepted == 2
            client.close()
        finally:
            server.close()

    def test_timeout_is_the_callers_and_is_not_retried(self):
        with socket.create_server(("127.0.0.1", 0)) as listener:  # accepts, never answers
            client = SchedulerClient(*listener.getsockname(), timeout=0.2)
            with pytest.raises(TimeoutError):
                client._call("GET", "/v1/status")
            assert client._sock is None
            client.close()

    def test_a_peer_that_is_not_http_is_a_connection_error(self):
        with socket.create_server(("127.0.0.1", 0)) as listener:
            def banner():
                for _ in range(2):  # first attempt + the one reconnect
                    conn, _ = listener.accept()
                    conn.sendall(b"SSH-2.0-OpenSSH_9.6\r\n\r\n")
                    conn.close()

            thread = threading.Thread(target=banner, daemon=True)
            thread.start()
            client = SchedulerClient(*listener.getsockname(), timeout=5)
            with pytest.raises(ConnectionError, match="not a scheduler service"):
                client.status()
            thread.join(timeout=5)
            assert not thread.is_alive()


class TestStormTransport:
    def test_a_connection_lost_mid_storm_is_accounted_as_dropped(self):
        # two connections, two hosts each (heartbeat + request-work per
        # host); the first accepted one is hung up on after one answer
        # (the third connection is storm()'s closing status probe)
        server = ScriptedServer(["answer-then-hang-up", "serve", "serve"])
        try:
            report = storm(
                "http://%s:%d" % server.address, n_hosts=4, connections=2,
                report_results=False,
            )
        finally:
            server.close()
        assert (report.sent, report.answered, report.dropped) == (6, 5, 1)
        assert report.ok == 5 and report.errors == 0 and report.refused_total == 0
        assert len(report.latencies_s) == report.answered

    def test_storm_refuses_to_start_against_a_dead_port(self):
        with socket.create_server(("127.0.0.1", 0)) as listener:
            address = listener.getsockname()
        with pytest.raises(OSError):
            storm("http://%s:%d" % address, n_hosts=2, connections=1)


# -- interoperation with the stdlib clients ----------------------------------


def _body_for(path: str, token: int | None) -> dict | None:
    return {
        "/v1/heartbeat": {"host": 3},
        "/v1/request-work": {"host": 3, "t": 10.0},
        "/v1/report-result": {"token": token, "valid": True, "accounted_cpu_s": 1.0, "t": 20.0},
        "/v1/finalize": {"t": 30.0},
    }.get(path)


def _check_endpoint(path: str, status: int, raw: bytes, content_type: str) -> dict:
    assert status == 200, (path, status, raw)
    if path == "/v1/metrics":
        assert content_type.startswith("text/plain") and b"service_rpc_wall_s" in raw
        return {}
    assert content_type == "application/json"
    payload = json.loads(raw)
    expected_key = {
        "/": "wire_protocol", "/v1/status": "rpc_wall_s", "/v1/hosts": "campaign",
        "/v1/request-work": "assignment", "/v1/report-result": "accepted",
        "/v1/heartbeat": "ok", "/v1/finalize": "summary",
    }[path]
    assert expected_key in payload
    return payload


class TestStdlibInterop:
    def test_http_client_keep_alive_over_every_endpoint(self, service):
        conn = http.client.HTTPConnection(*service.address, timeout=10)
        token = None
        for method, path, _ in ENDPOINTS:
            body = _body_for(path, token)
            conn.request(
                method, path,
                body=json.dumps(body).encode() if body is not None else None,
                headers={"Content-Type": "application/json"} if body is not None else {},
            )
            response = conn.getresponse()
            payload = _check_endpoint(
                path, response.status, response.read(), response.getheader("Content-Type")
            )
            assert response.getheader("Connection") == "keep-alive"
            if path == "/v1/request-work":
                token = payload["assignment"]["token"]
        # a refusal carries its Retry-After header through the codec
        service.service.draining = True
        conn.request("POST", "/v1/request-work", body=b'{"host":1}')
        response = conn.getresponse()
        assert response.status == 503 and response.getheader("Retry-After") == "5"
        assert json.loads(response.read())["reason"] == "draining"
        conn.close()
        assert len(service.service._conns) <= 1  # one connection carried it all

    def test_urllib_request_over_every_endpoint(self, service):
        token = None
        for method, path, _ in ENDPOINTS:
            body = _body_for(path, token)
            request = urllib.request.Request(
                service.url + path, method=method,
                data=json.dumps(body).encode() if body is not None else None,
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request, timeout=10) as response:
                payload = _check_endpoint(
                    path, response.status, response.read(),
                    response.headers["Content-Type"],
                )
                # urllib asks for Connection: close and gets it
                assert response.headers["Connection"] == "close"
            if path == "/v1/request-work":
                token = payload["assignment"]["token"]


# -- structure ---------------------------------------------------------------


class TestOneCodec:
    def sources(self) -> dict[str, str]:
        return {p.name: p.read_text() for p in sorted(SERVICE_SRC.glob("*.py"))}

    def test_no_second_http_stack_under_service(self):
        banned = re.compile(r"http\.client|start_server|StreamReader|readline\(")
        hits = {
            name: banned.findall(text)
            for name, text in self.sources().items() if banned.search(text)
        }
        assert not hits

    def test_content_length_is_parsed_in_exactly_one_module(self):
        parsers = [
            name for name, text in self.sources().items()
            if re.search(r"content-length", text, re.IGNORECASE)
        ]
        assert parsers == ["http.py"]
        speakers = [
            name for name, text in self.sources().items() if "Framer(" in text
        ]
        assert speakers == ["app.py", "client.py", "loadgen.py"]


# -- the serve CLI as a process ----------------------------------------------


def test_serve_cli_drains_on_sigterm_mid_connection():
    repo = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(repo / "src"))
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "--seed", "11", "serve",
            "--scale", "900", "--proteins", "5", "--horizon-weeks", "30", "--port", "0",
        ],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env, cwd=repo,
    )
    client = None
    try:
        line = proc.stdout.readline()
        match = re.search(r"serving campaign .* at (http://\S+)", line)
        assert match, (line, proc.stderr.read() if proc.poll() is not None else "")
        client = SchedulerClient.from_url(match.group(1), timeout=10)
        assert client.heartbeat(host=1)["ok"]
        assignment = client.request_work(host=0, t=10.0)["assignment"]
        client.report_result(
            assignment["token"], True, assignment["cost_reference_s"], t=5000.0
        )
        # SIGTERM while this keep-alive connection is still open
        proc.send_signal(signal.SIGTERM)
        out, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
        if client is not None:
            client.close()
    assert proc.returncode == 0, err
    assert "draining..." in out
    assert re.search(r"requests answered\s*\|\s*3\b", out), out
    assert "peak queue depth" in out
    assert "Traceback" not in err and "Error" not in err, err
