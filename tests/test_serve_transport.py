"""Tests for the URL-addressed transport layer (:mod:`repro.serve.transport`)."""

import os
import threading
import time

import pytest

from repro.serve import wire
from repro.serve.transport import (
    PeerGone,
    PipeTransport,
    SocketTransport,
    TransportError,
    TransportListener,
    TransportTimeout,
    connect,
    parse_url,
)


def _pipe_pair():
    """Two connected PipeTransports over real OS pipes."""
    a2b_r, a2b_w = os.pipe()
    b2a_r, b2a_w = os.pipe()
    a = PipeTransport(os.fdopen(a2b_w, "wb"), os.fdopen(b2a_r, "rb"), peer="a")
    b = PipeTransport(os.fdopen(b2a_w, "wb"), os.fdopen(a2b_r, "rb"), peer="b")
    return a, b


def _tcp_pair():
    """A connected (client, server) SocketTransport pair."""
    listener = TransportListener("tcp://127.0.0.1:0")
    client = connect(str(listener.url), timeout_s=5.0)
    server = listener.accept(timeout_s=5.0)
    listener.close()
    return client, server


# ----------------------------------------------------------------------
class TestParseURL:
    def test_tcp(self):
        url = parse_url("tcp://127.0.0.1:7355")
        assert (url.scheme, url.host, url.port) == ("tcp", "127.0.0.1", 7355)
        assert str(url) == "tcp://127.0.0.1:7355"

    def test_unix(self):
        url = parse_url("unix:///run/soc.sock")
        assert (url.scheme, url.path) == ("unix", "/run/soc.sock")

    def test_pipe(self):
        assert parse_url("pipe://").scheme == "pipe"

    @pytest.mark.parametrize(
        "bad",
        [
            "http://x:1",  # unknown scheme
            "tcp://127.0.0.1",  # missing port
            "tcp://127.0.0.1:notaport",
            "tcp://127.0.0.1:70000",  # out of range
            "unix://relative/path",  # must be absolute
            "pipe://somewhere",  # pipes take no address
            "shm://",  # not a transport scheme
            "127.0.0.1:7355",  # no scheme at all
        ],
    )
    def test_rejects_bad_urls(self, bad):
        with pytest.raises(ValueError):
            parse_url(bad)

    def test_parsed_urls_pass_through(self):
        url = parse_url("tcp://h:1")
        assert parse_url(url) is url


# ----------------------------------------------------------------------
class TestFraming:
    @pytest.fixture(params=["pipe", "tcp"])
    def pair(self, request):
        a, b = _pipe_pair() if request.param == "pipe" else _tcp_pair()
        yield a, b
        a.close()
        b.close()

    def test_pickle_round_trip(self, pair):
        """Pickled frames (the daemon's client link) cross either medium
        and decode through that link's reader, never through recv_frame."""
        from repro.serve.client import read_payload

        a, b = pair
        a.send_pickle(("estimate", ("cell1", 3.7), {"temp_c": 25.0}))
        assert read_payload(b) == ("estimate", ("cell1", 3.7), {"temp_c": 25.0})
        b.send_pickle(("ok", [1.0, 2.0]))
        with pytest.raises(ValueError, match="not a v2 frame"):
            a.recv_frame()

    def test_clean_close_reads_as_none(self, pair):
        a, b = pair
        a.close()
        assert b.recv_frame() is None

    def test_partial_frame_at_peer_disconnect_raises_peer_gone(self, pair):
        """EOF *inside* a frame is a death, not a close: the header
        promised bytes the peer never delivered."""
        a, b = pair
        body = wire.pickle_body(("op", (), {}))
        a.send_chunks([wire.frame_header(len(body)), body[: len(body) // 2]])
        a.close()
        with pytest.raises(PeerGone, match="mid-frame|gone"):
            b.recv_frame()

    def test_recv_deadline_raises_transport_timeout(self, pair):
        a, b = pair
        t0 = time.monotonic()
        with pytest.raises(TransportTimeout):
            b.recv_frame(timeout_s=0.15)
        assert time.monotonic() - t0 < 5.0

    def test_recv_deadline_covers_a_peer_stalling_mid_frame(self, pair):
        """Half a frame, then silence: the deadline bounds the whole
        frame read, not just the wait for its first byte."""
        a, b = pair
        body = wire.pickle_body(("op", (), {}))
        a.send_chunks([wire.frame_header(len(body)), body[: len(body) // 2]])
        hangup = threading.Timer(3.0, a.close)  # unblocks a reader that ignores the deadline
        hangup.start()
        try:
            t0 = time.monotonic()
            with pytest.raises(TransportTimeout):
                b.recv_frame(timeout_s=0.2)
            assert time.monotonic() - t0 < 0.2 + 1.0
        finally:
            hangup.cancel()

    def test_request_promotes_silent_close_to_peer_gone(self, pair):
        a, b = pair

        def server():
            b.recv_frame()
            b.close()  # hang up instead of replying

        thread = threading.Thread(target=server)
        thread.start()
        with pytest.raises(PeerGone, match="closed instead of replying"):
            a.request("ping", timeout_s=5.0)
        thread.join()

    def test_wait_readable_idle_does_not_poison(self, pair):
        """The server-loop idle wait: a False return consumes nothing,
        and the very next frame still parses."""
        a, b = pair
        assert b.wait_readable(timeout_s=0.05) is False
        a.send_v2("hello", {})
        assert b.wait_readable(timeout_s=5.0) is True
        assert b.recv_frame().kind == "hello"

    def test_wait_readable_sees_buffered_readahead(self, pair):
        """Two frames sent back-to-back may both sit in the reader's
        userspace buffer; wait_readable must not block on the empty fd."""
        a, b = pair
        a.send_v2("one", {})
        a.send_v2("two", {})
        assert b.recv_frame().kind == "one"
        assert b.wait_readable(timeout_s=0.05) is True
        assert b.recv_frame().kind == "two"

    def test_v2_frames_travel_unchanged(self, pair):
        import numpy as np

        a, b = pair
        chunks = wire.encode_v2("estimate", {"n": 2}, [np.arange(4.0), np.ones(2)])
        a.send_chunks(chunks)
        frame = b.recv_frame()
        assert isinstance(frame, wire.V2Frame)
        assert frame.kind == "estimate"
        np.testing.assert_array_equal(frame.arrays[0], np.arange(4.0))

    def test_malformed_v2_body_ends_the_connection_not_the_worker(self, pair):
        """A v2 body whose payload runs past its end is a ``ValueError``
        from the decoder; the worker loop treats it as a closed peer
        instead of dying with a traceback."""
        from repro.serve.workers import WorkerEndpoint

        a, b = pair
        body = b"".join(bytes(c) for c in wire.encode_v2("estimate", {}, [wire.encode_str_list(["c0"])]))[4:]
        truncated = body[:-1]
        a.send_chunks([wire.frame_header(len(truncated)), truncated])
        assert WorkerEndpoint(b).serve() == "closed"


# ----------------------------------------------------------------------
class TestSocketLifecycle:
    def test_ephemeral_port_is_resolved(self):
        with TransportListener("tcp://127.0.0.1:0") as listener:
            assert listener.url.port not in (0, None)

    def test_connect_retries_until_listener_binds(self):
        """The restart-by-reconnect race: the dialer arrives before the
        listener exists and still connects within the window."""
        probe = TransportListener("tcp://127.0.0.1:0")
        url = str(probe.url)
        probe.close()  # free the port; rebind it shortly
        results = {}

        def dial():
            results["transport"] = connect(url, timeout_s=5.0)

        thread = threading.Thread(target=dial)
        thread.start()
        time.sleep(0.3)
        listener = TransportListener(url)
        server = listener.accept(timeout_s=5.0)
        thread.join(timeout=5.0)
        client = results["transport"]
        client.send_v2("hi", {})
        assert server.recv_frame().kind == "hi"
        for closable in (client, server, listener):
            closable.close()

    def test_connect_gives_up_after_deadline(self):
        probe = TransportListener("tcp://127.0.0.1:0")
        url = str(probe.url)
        probe.close()
        with pytest.raises(TransportError, match="could not connect"):
            connect(url, timeout_s=0.3)

    def test_stale_unix_socket_file_is_replaced(self, tmp_path):
        path = tmp_path / "soc.sock"
        dead = TransportListener(f"unix://{path}")
        dead._sock.close()  # owner died without unlinking: stale file stays
        assert path.exists()
        listener = TransportListener(f"unix://{path}")
        client = connect(f"unix://{path}", timeout_s=5.0)
        server = listener.accept(timeout_s=5.0)
        client.send_v2("after-steal", {})
        assert server.recv_frame().kind == "after-steal"
        for closable in (client, server, listener):
            closable.close()
        assert not path.exists()  # close() removes the socket file

    def test_live_unix_socket_is_not_stolen(self, tmp_path):
        path = tmp_path / "soc.sock"
        with TransportListener(f"unix://{path}"):
            with pytest.raises(TransportError, match="live process"):
                TransportListener(f"unix://{path}")

    def test_listener_close_unblocks_accept(self):
        listener = TransportListener("tcp://127.0.0.1:0")
        with pytest.raises(TransportTimeout):
            listener.accept(timeout_s=0.05)
        listener.close()
        with pytest.raises(TransportError):
            listener.accept(timeout_s=0.05)


# ----------------------------------------------------------------------
class TestPipeDeadlines:
    def test_deadline_spares_buffered_bytes(self):
        """A frame already sitting in the buffered reader must be
        served even when the fd itself polls empty."""
        a, b = _pipe_pair()
        try:
            a.send_v2("x", {})
            time.sleep(0.05)  # let the bytes land in the pipe
            assert b.recv_frame(timeout_s=0.2).kind == "x"
        finally:
            a.close()
            b.close()

    def test_in_memory_streams_skip_polling(self):
        import io

        rd = io.BytesIO(b"".join(bytes(c) for c in wire.encode_v2("payload", {}, [])))
        transport = PipeTransport(io.BytesIO(), rd, peer="mem")
        assert transport.wait_readable(timeout_s=0.01) is True
        assert transport.recv_frame(timeout_s=0.01).kind == "payload"


# ----------------------------------------------------------------------
class TestTransportTypes:
    def test_socket_transport_peer_names(self):
        client, server = _tcp_pair()
        try:
            assert client.peer.startswith("tcp://")
            assert server.peer.startswith("tcp://")
        finally:
            client.close()
            server.close()

    def test_send_after_close_raises_peer_gone(self):
        client, server = _tcp_pair()
        server.close()
        client.close()
        with pytest.raises((PeerGone, TransportError)):
            client.send_pickle("too late")
        assert isinstance(client, SocketTransport)
