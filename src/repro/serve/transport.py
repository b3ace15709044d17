"""URL-addressed worker transports: pipes, Unix sockets, TCP sockets.

:class:`Transport` is the seam: a tiny connection-oriented surface —
``send_v2`` / ``recv_frame`` / ``close`` — that carries the
length-prefixed v2 frame stream of :mod:`repro.serve.wire` over any
medium, addressed by URL.  ``recv_frame`` decodes v2 only;
``send_pickle`` and the raw ``recv_body`` serve the daemon's client
link, the one link still pickled.  The media:

- ``pipe://``            — parent<->child stdio pipes (the local fast
  path; spawn semantics stay with :class:`~repro.serve.workers.ShardWorker`);
- ``unix:///path/sock``  — a Unix-domain socket (same-host daemons);
- ``tcp://host:port``    — a TCP socket (multi-host fleets; Nagle is
  disabled so micro-batched request frames are not coalesced against
  the latency SLO).

Peer-death detection is the part that genuinely changes across media.
A spawned child's death is visible out-of-band (``poll``/``waitpid``
plus EOF on the pipe); a remote peer offers only the byte stream, so
this module layers two in-band signals:

- **torn stream** — EOF at a frame boundary is a clean close
  (``recv_frame`` returns ``None``); EOF *inside* a frame means the
  peer vanished mid-message and raises :class:`PeerGone` (the partial
  frame cannot be completed, and the connection is marked broken);
- **deadlines** — ``recv_frame(timeout_s=...)`` bounds how long a
  caller waits on a silent peer and raises :class:`TransportTimeout`.
  A timeout *poisons* the transport (the stream position may be
  mid-frame, so no further traffic can be framed safely): callers
  reconnect, they do not retry on the same socket.  Heartbeats build
  on this — :meth:`Transport.request` with a short deadline is the
  probe the control plane uses to detect silently-dead peers between
  requests (see ``ShardedFleet.heartbeat``).

Both socket flavors expose the same buffered-file read side that
:func:`repro.serve.wire.read_frame` already consumes, so the codec —
and its zero-copy properties — is reused unchanged.  The v2 frame's
first chunk (header + JSON meta) and its raw array payloads are
written with one ``sendall`` per chunk, never concatenated through an
intermediate copy.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import selectors
import socket
import time
from pathlib import Path
from typing import Iterable

from . import wire

__all__ = [
    "PeerGone",
    "PipeTransport",
    "SocketTransport",
    "Transport",
    "TransportError",
    "TransportListener",
    "TransportTimeout",
    "TransportURL",
    "connect",
    "parse_url",
]

SCHEMES = ("pipe", "tcp", "unix")

class TransportError(ConnectionError):
    """Base class for transport-layer failures."""


class PeerGone(TransportError):
    """The peer closed or died: EOF mid-frame, reset, or broken pipe."""


class TransportTimeout(TransportError):
    """A receive deadline expired; the transport is no longer framed."""


@dataclasses.dataclass(frozen=True)
class TransportURL:
    """One parsed transport address.

    ``host``/``port`` are set for ``tcp``, ``path`` for ``unix``;
    ``pipe`` URLs carry neither (the address *is* the child's stdio).
    """

    scheme: str
    host: str | None = None
    port: int | None = None
    path: str | None = None

    def __str__(self) -> str:
        if self.scheme == "tcp":
            return f"tcp://{self.host}:{self.port}"
        if self.scheme == "unix":
            return f"unix://{self.path}"
        return f"{self.scheme}://"


def parse_url(url: str | TransportURL) -> TransportURL:
    """Parse ``pipe://`` / ``unix:///path`` / ``tcp://host:port``.

    ``tcp`` port 0 is allowed for listeners (the OS assigns an
    ephemeral port; read :attr:`TransportListener.url` for the bound
    address).
    """
    if isinstance(url, TransportURL):
        return url
    scheme, sep, rest = url.partition("://")
    if not sep or scheme not in SCHEMES:
        raise ValueError(f"unsupported transport URL {url!r} (schemes: {', '.join(SCHEMES)})")
    if scheme == "pipe":
        if rest:
            raise ValueError(f"pipe transport takes no address, got {url!r}")
        return TransportURL(scheme="pipe")
    if scheme == "unix":
        if not rest.startswith("/"):
            raise ValueError(f"unix transport needs an absolute path, got {url!r}")
        return TransportURL(scheme="unix", path=rest)
    host, sep, port = rest.rpartition(":")
    if not sep or not host:
        raise ValueError(f"tcp transport needs host:port, got {url!r}")
    try:
        port_num = int(port)
    except ValueError:
        raise ValueError(f"tcp port must be an integer, got {url!r}") from None
    if not 0 <= port_num <= 0xFFFF:
        raise ValueError(f"tcp port out of range in {url!r}")
    return TransportURL(scheme="tcp", host=host, port=port_num)


class Transport:
    """One framed, bidirectional connection to a peer.

    Subclasses provide the raw streams; framing, torn-stream
    detection and deadline bookkeeping live here.  Not thread-safe:
    callers serialize request/reply pairs per transport (the worker
    protocol is strictly one reply per request, in order).
    """

    peer: str = "?"

    # -- raw stream hooks (subclass responsibility) --------------------
    def _write(self, chunk) -> None:
        raise NotImplementedError

    def _flush(self) -> None:
        raise NotImplementedError

    def _read_stream(self):
        """The buffered binary read side frames are decoded from."""
        raise NotImplementedError

    def _set_read_timeout(self, timeout_s: float | None) -> None:
        """Arm (or clear) the receive deadline; may be a no-op."""

    def close(self) -> None:
        raise NotImplementedError

    @property
    def closed(self) -> bool:
        raise NotImplementedError

    # -- framing -------------------------------------------------------
    def send_chunks(self, chunks: Iterable) -> None:
        """Write pre-encoded frame chunks (header + raw array buffers)."""
        try:
            for chunk in chunks:
                self._write(chunk)
            self._flush()
        except (BrokenPipeError, ConnectionError, OSError) as exc:
            raise PeerGone(f"peer {self.peer} gone while sending: {exc}") from exc

    def send_pickle(self, payload) -> None:
        """Write one pickled frame (the daemon's client link only)."""
        body = wire.pickle_body(payload)
        self.send_chunks([wire.frame_header(len(body)), body])

    def send_v2(self, kind: str, meta: dict, arrays=()) -> None:
        """Write one v2 frame; it is encoded first, so a ``TypeError`` (non-JSON meta) writes nothing."""
        self.send_chunks(wire.encode_v2(kind, meta, arrays))

    def recv_frame(self, timeout_s: float | None = None) -> wire.V2Frame | None:
        """:meth:`recv_body`, decoded; a body that is not v2 raises ``ValueError``."""
        body = self.recv_body(timeout_s)
        return None if body is None else wire.decode_body(body)

    def recv_body(self, timeout_s: float | None = None) -> bytes | None:
        """Read one frame body, undecoded; ``None`` means the peer closed cleanly.

        Raises :class:`PeerGone` when the stream ends inside a frame
        (the peer died mid-message) and :class:`TransportTimeout` when
        ``timeout_s`` elapses first.  Either error leaves the stream
        unframed — abandon the transport and reconnect.
        """
        self._set_read_timeout(timeout_s)
        stream = self._read_stream()
        try:
            header = wire.read_exact(stream, wire.LENGTH_PREFIX_SIZE)
            if header is None:
                return None  # clean EOF at a frame boundary
            length = wire.frame_length(header)
            body = wire.read_exact(stream, length)
        except (socket.timeout, TimeoutError) as exc:
            raise TransportTimeout(
                f"no frame from {self.peer} within {timeout_s:.3f}s"
            ) from exc
        except (ConnectionError, OSError, ValueError) as exc:
            # ValueError: reading a stream another timeout already broke
            raise PeerGone(f"peer {self.peer} gone while receiving: {exc}") from exc
        finally:
            self._set_read_timeout(None)
        if body is None:
            raise PeerGone(f"peer {self.peer} vanished mid-frame (partial frame discarded)")
        return body

    def request(self, kind: str, meta: dict | None = None, arrays=(), timeout_s: float | None = None):
        """One v2 round trip: send a request frame, return the reply frame.

        A ``None`` reply (peer closed instead of answering) is
        promoted to :class:`PeerGone` — a request must be answered.
        """
        return self.request_with(lambda t: t.send_v2(kind, meta or {}, arrays), timeout_s=timeout_s)

    def request_with(self, send, timeout_s: float | None = None) -> wire.V2Frame:
        """A round trip whose request ``send(transport)`` writes itself (see :meth:`request`)."""
        send(self)
        reply = self.recv_frame(timeout_s=timeout_s)
        if reply is None:
            raise PeerGone(f"peer {self.peer} closed instead of replying")
        return reply

    def wait_readable(self, timeout_s: float | None = None) -> bool:
        """Block until the next frame's first byte is available.

        Unlike a :meth:`recv_frame` deadline this never consumes bytes,
        so a ``False`` return (nothing arrived in time) leaves the
        stream framed and the transport fully usable — it is the idle
        wait for server accept loops that must poll a stop flag between
        requests without poisoning the connection.  Buffered read-ahead
        from a previous frame counts as readable.
        """
        return True  # base: no poll support, let recv_frame block

    def __enter__(self) -> Transport:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class PipeTransport(Transport):
    """The frame stream over a pair of OS pipes (or any binary streams).

    The local fast path: a ``pipe://``
    :class:`~repro.serve.workers.ShardWorker` talks to its child over
    these.  Receive deadlines are honored via ``select`` on the read
    end when it is a real pipe; in-memory streams (tests) skip the
    poll.
    """

    def __init__(self, write_stream, read_stream, peer: str = "pipe"):
        self._wr = write_stream
        self._rd = read_stream
        self.peer = peer
        self._closed = False
        self._deadline_s: float | None = None

    def _write(self, chunk) -> None:
        self._wr.write(chunk)

    def _flush(self) -> None:
        self._wr.flush()

    def _read_stream(self):
        if self._deadline_s is None:
            return self._rd
        return _DeadlineReader(self._rd, self._deadline_s)

    def _set_read_timeout(self, timeout_s: float | None) -> None:
        self._deadline_s = None if timeout_s is None else time.monotonic() + timeout_s

    def wait_readable(self, timeout_s: float | None = None) -> bool:
        try:
            fd = self._rd.fileno()
        except (AttributeError, OSError, ValueError):
            return True  # in-memory stream (tests): reads cannot block
        if _buffered_ready(self._rd, fd):
            return True
        return _fd_readable(fd, timeout_s)

    def close(self) -> None:
        self._closed = True
        for stream in (self._wr, self._rd):
            with contextlib.suppress(OSError, ValueError):
                stream.close()

    @property
    def closed(self) -> bool:
        return self._closed


class _DeadlineReader:
    """Wrap a pipe's read side with a ``select``-based deadline.

    ``read`` blocks at most until the deadline; hitting it raises
    ``TimeoutError``, which :meth:`Transport.recv_frame` maps to
    :class:`TransportTimeout`.  Each call returns at most one chunk
    (``read1``) after its own ``select``, so a frame read in a loop
    (:func:`repro.serve.wire.read_exact`) stays under the deadline even
    when the peer stalls mid-frame.  Streams without a file descriptor
    (BytesIO in tests) cannot block, so they read straight through.
    """

    def __init__(self, stream, deadline_s: float):
        self._stream = stream
        self._deadline_s = deadline_s
        try:
            self._fd = stream.fileno()
        except (AttributeError, OSError, ValueError):
            self._fd = None

    def read(self, n: int) -> bytes:
        if self._fd is None:
            return self._stream.read(n)
        # buffered read-ahead first: select() only sees the fd
        if not _buffered_ready(self._stream, self._fd):
            remaining = self._deadline_s - time.monotonic()
            if remaining <= 0 or not _fd_readable(self._fd, remaining):
                raise TimeoutError("pipe read deadline expired")
        # read1: at most one raw read, never a wait for all n bytes
        return getattr(self._stream, "read1", self._stream.read)(n)


def _fd_readable(fd: int, timeout_s: float | None) -> bool:
    """``select`` one fd for reading; ``None`` waits forever."""
    with selectors.DefaultSelector() as sel:
        sel.register(fd, selectors.EVENT_READ)
        return bool(sel.select(timeout_s))


def _buffered_ready(stream, fd: int) -> bool:
    """Whether ``stream`` holds read-ahead bytes a poll on ``fd`` misses.

    ``BufferedReader.read`` pulls whole kernel chunks, so the start of
    the next frame may already sit in userspace while the fd polls
    empty.  Probing with the fd briefly non-blocking makes ``peek``
    return the buffer without issuing a blocking raw read.
    """
    peek = getattr(stream, "peek", None)
    if peek is None:
        return False  # raw stream: no read-ahead to miss
    try:
        os.set_blocking(fd, False)
    except OSError:
        return False
    try:
        return len(peek(1)) > 0
    except (BlockingIOError, OSError, ValueError):
        return False
    finally:
        with contextlib.suppress(OSError):
            os.set_blocking(fd, True)


class SocketTransport(Transport):
    """The frame stream over a connected TCP or Unix socket."""

    def __init__(self, sock: socket.socket, peer: str | None = None):
        sock.settimeout(None)  # blocking by default; deadlines are per-recv
        if sock.family == socket.AF_INET:
            with contextlib.suppress(OSError):
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        self._rd = sock.makefile("rb")
        self.peer = peer if peer is not None else _peer_name(sock)
        self._closed = False

    def _write(self, chunk) -> None:
        self._sock.sendall(chunk)

    def _flush(self) -> None:
        pass  # sendall already handed the bytes to the kernel

    def _read_stream(self):
        return self._rd

    def _set_read_timeout(self, timeout_s: float | None) -> None:
        self._sock.settimeout(timeout_s)

    def wait_readable(self, timeout_s: float | None = None) -> bool:
        if self._closed:
            return True  # let recv_frame surface the real error
        fd = self._sock.fileno()
        if fd < 0:
            return True
        if _buffered_ready(self._rd, fd):
            return True
        return _fd_readable(fd, timeout_s)

    def close(self) -> None:
        self._closed = True
        with contextlib.suppress(OSError):
            self._sock.shutdown(socket.SHUT_RDWR)
        with contextlib.suppress(OSError):
            self._rd.close()
        with contextlib.suppress(OSError):
            self._sock.close()

    @property
    def closed(self) -> bool:
        return self._closed


def _peer_name(sock: socket.socket) -> str:
    try:
        peer = sock.getpeername()
    except OSError:
        return "?"
    if isinstance(peer, tuple):
        return f"tcp://{peer[0]}:{peer[1]}"
    return f"unix://{peer or '?'}"


def connect(
    url: str | TransportURL,
    timeout_s: float = 10.0,
    retry_interval_s: float = 0.05,
) -> SocketTransport:
    """Dial a socket URL, retrying refused connections until ``timeout_s``.

    Retrying here (rather than in every caller) is what makes
    restart-by-reconnect races benign: a worker that is still binding
    its listener — or being respawned after a crash — turns into a
    short wait instead of an error.  Raises :class:`TransportError`
    when the deadline passes without a connection.
    """
    parsed = parse_url(url)
    if parsed.scheme == "pipe":
        raise ValueError("pipe:// has no dialable address; spawn the worker instead")
    deadline = time.monotonic() + timeout_s
    last_error: Exception | None = None
    while True:
        remaining = max(deadline - time.monotonic(), 0.001)
        try:
            if parsed.scheme == "tcp":
                sock = socket.create_connection((parsed.host, parsed.port), timeout=remaining)
            else:
                sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                sock.settimeout(remaining)
                sock.connect(parsed.path)
            return SocketTransport(sock, peer=str(parsed))
        except (ConnectionError, FileNotFoundError, socket.timeout, TimeoutError, OSError) as exc:
            last_error = exc
        if time.monotonic() >= deadline:
            raise TransportError(f"could not connect to {parsed} within {timeout_s:.1f}s: {last_error}")
        time.sleep(retry_interval_s)


class TransportListener:
    """Bind a socket URL and accept :class:`SocketTransport` peers.

    ``tcp://host:0`` binds an ephemeral port — read :attr:`url` for
    the resolved address to hand to clients.  Stale Unix socket files
    are replaced (the daemon that owned them is gone by definition:
    binding an *active* one raises ``EADDRINUSE`` like TCP does).
    """

    def __init__(self, url: str | TransportURL, backlog: int = 16):
        parsed = parse_url(url)
        if parsed.scheme == "pipe":
            raise ValueError("pipe:// cannot listen; it is a spawn-time transport")
        if parsed.scheme == "tcp":
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind((parsed.host, parsed.port))
            host, port = sock.getsockname()[:2]
            self.url = TransportURL(scheme="tcp", host=parsed.host, port=port)
        else:
            path = Path(parsed.path)
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                sock.bind(parsed.path)
            except OSError:
                # a leftover socket file from a dead process; probe it
                # and only steal the address if nothing answers
                probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                try:
                    probe.connect(parsed.path)
                except OSError:
                    path.unlink(missing_ok=True)
                    sock.bind(parsed.path)
                else:
                    probe.close()
                    sock.close()
                    raise TransportError(f"{parsed} is already served by a live process")
                finally:
                    probe.close()
            self.url = parsed
        sock.listen(backlog)
        self._sock = sock
        self._closed = False

    def accept(self, timeout_s: float | None = None) -> SocketTransport:
        """Block for the next peer; :class:`TransportTimeout` on deadline."""
        try:
            self._sock.settimeout(timeout_s)
            peer_sock, _ = self._sock.accept()
        except (socket.timeout, TimeoutError) as exc:
            raise TransportTimeout(f"no connection on {self.url} within {timeout_s:.3f}s") from exc
        except OSError as exc:
            raise TransportError(f"listener on {self.url} closed: {exc}") from exc
        return SocketTransport(peer_sock)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        with contextlib.suppress(OSError):
            self._sock.close()
        if self.url.scheme == "unix":
            with contextlib.suppress(OSError):
                os.unlink(self.url.path)

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> TransportListener:
        return self

    def __exit__(self, *exc) -> None:
        self.close()
