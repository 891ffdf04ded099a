"""HTTP/1.1 framing for the scheduler wire: one codec, three speakers.

The service, the blocking client and the storm load generator all frame
their messages here — :func:`build_request` / :func:`build_response` on
the way out, one :class:`Framer` on the way in.  It is the subset of
HTTP/1.1 the wire protocol (docs/service.md, "Transport") needs and no
more: a start line, ``Content-Length``-delimited bodies, ``Connection:
close`` / keep-alive, and hard limits on what a peer may send.  Heads
are written with CRLF line ends and read with CRLF or bare LF.

The framer is *sans-IO*: it is fed whatever bytes the socket produced,
at whatever chunk boundaries, and hands back whole messages — so the
same code parses inside an asyncio protocol's ``data_received``, around
a blocking ``recv`` loop and around ``loop.sock_recv``.  Everything a
peer can get wrong is reported as :class:`FramingError`; nothing else
escapes.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Mapping, NamedTuple

__all__ = [
    "JSON_TYPE",
    "MAX_HEAD_BYTES",
    "MAX_HEADER_LINES",
    "FramingError",
    "Framer",
    "Message",
    "build_request",
    "build_response",
    "request_line",
    "status_line",
]

JSON_TYPE = "application/json"

#: most header lines accepted in one message head
MAX_HEADER_LINES = 64
#: largest accepted message head (start line + headers), in bytes
MAX_HEAD_BYTES = 16 * 1024

_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found", 410: "Gone",
    500: "Internal Server Error", 503: "Service Unavailable",
}


class FramingError(ValueError):
    """The peer sent something that is not a well-formed message head.

    The byte stream cannot be trusted past this point: the speaker that
    sees it answers (a server: ``400`` + ``Connection: close``) and
    drops the connection.
    """


# -- building ----------------------------------------------------------------


def build_request(method: str, path: str, body: bytes = b"", host: str = "") -> bytes:
    """One request — head and body — as a single buffer for a single send."""
    head = f"{method} {path} HTTP/1.1\r\nHost: {host}\r\n"
    if body:
        head += f"Content-Type: {JSON_TYPE}\r\nContent-Length: {len(body)}\r\n"
    return head.encode("latin-1") + b"\r\n" + body


@lru_cache(maxsize=None)
def _response_prefix(status: int, content_type: str, keep_alive: bool) -> bytes:
    # The part of a response head that does not depend on the body; the
    # key space is (statuses x content types x 2), so the cache is tiny.
    return (
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        "Content-Length: "
    ).encode("latin-1")


def build_response(
    status: int,
    body: bytes,
    content_type: str = JSON_TYPE,
    keep_alive: bool = True,
    headers: Mapping[str, str] | None = None,
) -> bytes:
    """One response — head and body — as a single buffer for a single write."""
    head = _response_prefix(status, content_type, keep_alive) + b"%d\r\n" % len(body)
    if headers:
        head += "".join(f"{k}: {v}\r\n" for k, v in headers.items()).encode("latin-1")
    return head + b"\r\n" + body


# -- parsing -----------------------------------------------------------------


def request_line(line: bytes) -> tuple[str, str, str]:
    """``METHOD target HTTP/1.x`` -> ``(method, target, version)``."""
    parts = line.decode("latin-1").split(" ")
    if len(parts) != 3 or not parts[0] or not parts[2].startswith("HTTP/1."):
        raise FramingError(f"malformed request line {_shown(line)}")
    method, target, version = parts
    return method, target, version


def status_line(line: bytes) -> tuple[str, int, str]:
    """``HTTP/1.x code [reason]`` -> ``(version, status, reason)``."""
    version, _, rest = line.partition(b" ")
    code, _, reason = rest.partition(b" ")
    if not version.startswith(b"HTTP/1.") or len(code) != 3 or not code.isdigit():
        raise FramingError(f"malformed status line {_shown(line)}")
    return version.decode("latin-1"), int(code), reason.decode("latin-1")


def _shown(raw: bytes) -> str:
    return repr(raw[:60].decode("latin-1"))


class Message(NamedTuple):
    """One whole HTTP message, as a :class:`Framer` hands it back."""

    #: the parsed start line — :func:`request_line` or :func:`status_line`
    start: tuple
    #: may the connection carry another message after this one?
    keep_alive: bool
    body: bytes


class Framer:
    """Incremental parser: bytes in (any chunking), whole messages out.

    ``start_line`` is :func:`request_line` (a server reading requests)
    or :func:`status_line` (a client reading responses).  A declared body
    above ``max_body_bytes`` is a framing error (``None``: no limit — a
    client trusts the service it chose to talk to).
    """

    __slots__ = ("_start_line", "_max_body", "_buf", "_pending")

    def __init__(
        self,
        start_line: Callable[[bytes], tuple],
        max_body_bytes: int | None = None,
    ) -> None:
        self._start_line = start_line
        self._max_body = max_body_bytes
        # A bytearray: a large body arriving in many chunks is appended
        # to in place, not re-copied on every feed().
        self._buf = bytearray()
        #: (start, keep_alive, body offset, end offset) once the head is in
        self._pending: tuple[tuple, bool, int, int] | None = None

    @property
    def buffered(self) -> int:
        """Bytes received but not yet handed back as a message."""
        return len(self._buf)

    def feed(self, data: bytes) -> None:
        self._buf += data

    def next_message(self) -> Message | None:
        """The next whole message, or ``None`` until more bytes arrive.

        Raises :class:`FramingError` for an unparseable start line, more
        than :data:`MAX_HEADER_LINES` headers, a head above
        :data:`MAX_HEAD_BYTES`, a bad / repeated ``Content-Length``, a
        body above the limit, or a ``Transfer-Encoding`` (unsupported).
        """
        buf = self._buf
        if self._pending is None:
            # The head ends at the first empty line.  A line ends in LF,
            # with or without a CR before it (a peer typing into ``nc``).
            end = buf.find(b"\n\r\n", 0, MAX_HEAD_BYTES + 4)
            body_at = end + 3
            bare = buf.find(b"\n\n", 0, end + 1 if end >= 0 else MAX_HEAD_BYTES + 4)
            if bare >= 0:
                end, body_at = bare, bare + 2
            elif end < 0:
                if len(buf) > MAX_HEAD_BYTES:
                    raise FramingError(f"message head exceeds {MAX_HEAD_BYTES} bytes")
                return None
            start, keep_alive, length = self._parse_head(bytes(buf[:end]))
            self._pending = (start, keep_alive, body_at, body_at + length)
        start, keep_alive, body_at, stop = self._pending
        if len(buf) < stop:
            return None
        body = bytes(buf[body_at:stop])
        del buf[:stop]
        self._pending = None
        return Message(start, keep_alive, body)

    def _parse_head(self, head: bytes) -> tuple[tuple, bool, int]:
        lines = head.split(b"\n")  # (a line's trailing CR is stripped below)
        if len(lines) - 1 > MAX_HEADER_LINES:
            raise FramingError(f"more than {MAX_HEADER_LINES} header lines")
        start = self._start_line(lines[0].rstrip(b"\r"))
        keep_alive = True
        length: int | None = None
        for line in lines[1:]:
            name, _, value = line.partition(b":")
            name = name.strip().lower()
            if name == b"content-length":
                value = value.strip()
                # (the digit cap keeps int() clear of its own size limit)
                if length is not None or not value.isdigit() or len(value) > 18:
                    raise FramingError(f"bad Content-Length {_shown(value)}")
                length = int(value)
                if self._max_body is not None and length > self._max_body:
                    raise FramingError(
                        f"body of {length} bytes exceeds the "
                        f"{self._max_body}-byte limit"
                    )
            elif name == b"connection":
                keep_alive = value.strip().lower() != b"close"
            elif name == b"transfer-encoding":
                raise FramingError("Transfer-Encoding is not supported")
        return start, keep_alive, length or 0
