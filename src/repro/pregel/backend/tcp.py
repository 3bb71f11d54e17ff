"""Real TCP (loopback) slab exchange for the mp backend.

``--transport tcp`` moves the *cross-worker* data plane onto sockets:
every worker owns a loopback listening socket (bound in the parent before
the fork, so every process knows the full port map), and each exchange
round moves the columnar slab parts between workers as length-prefixed,
CRC32-trailed frames whose body is a part in :mod:`.codec`'s layout.
Worker-local slabs and the parent's in-flight log stay in the
shared-memory segments.

Delivery is :mod:`repro.pregel.net`'s protocol (docs/ARCHITECTURE.md §8):
one ``Sender`` per destination peer and one ``Receiver`` per source peer,
driven here with sockets, retransmit timers (``_ACK_BASE`` times the
sender's backoff units) and failure classification.  Streams outlive one
exchange; the parent bumps every worker's ``epoch`` on every recovery, so
each recovery starts fresh streams and an old-epoch frame is stale.

A peer whose listener is gone fails the connect with ECONNREFUSED
(``"refused"`` — a netsplit), one that died mid-connection surfaces
ECONNRESET / EPIPE (``"reset"``), and one merely too slow exhausts the
per-peer deadline (``"timeout"``).  The worker abandons the exchange on
the first classified failure and reports ``{peer: cause}`` to the parent,
which blames a culprit and escalates through ``ft.recover_worker``.  The
receiver keeps complete per-(source, tag) parts for the codec merge the
shm path uses, so shm and tcp runs are bit-identical by construction.
"""

from __future__ import annotations

import errno
import select
import socket
import struct
import time
import zlib
from contextlib import suppress

from ..net import DUPLICATE, PARKED, Receiver, Sender, TransportError
from .codec import read_part

#: frame header: total_length, src wid, src epoch, seq, kind, tag, count
_HDR = struct.Struct("!IIIIIII")
_CRC = struct.Struct("!I")
_KIND_DATA = 0
_KIND_ACK = 1

#: selector tick — how often the exchange loop re-checks timers while
#: waiting for socket readiness.
_TICK = 0.02

#: retransmit timer base: a frame waits ``_ACK_BASE`` times its sender's
#: backoff units before the next retransmission.
_ACK_BASE = 0.05
#: bounded retransmit: a frame unacked after this many transmissions fails
#: the peer with cause="timeout" instead of retrying forever.
_MAX_ATTEMPTS = 7
#: bounded reconnect: a connection refused/reset this many times fails
#: the peer with its connection-level cause.
_MAX_CONNECT_ATTEMPTS = 4

_LISTEN_BACKLOG = 64


def bind_listener() -> socket.socket:
    """Bind a fresh loopback listening socket on an ephemeral port.

    Called in the *parent* before (re)forking a worker so the port map is
    complete before any child runs; the child inherits the socket across
    the fork and the parent closes its own copy immediately after, so a
    worker-side ``close_listener()`` (the netsplit fault) really closes
    the kernel-level listener and peers see ECONNREFUSED."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.bind(("127.0.0.1", 0))
    sock.listen(_LISTEN_BACKLOG)
    return sock


def pack_frame(
    src: int, epoch: int, seq: int, kind: int, tag: int, count: int, body: bytes
) -> bytes:
    length = _HDR.size + len(body) + _CRC.size
    head = _HDR.pack(length, src, epoch, seq, kind, tag, count)
    crc = zlib.crc32(head[4:] + body) & 0xFFFFFFFF
    return head + body + _CRC.pack(crc)


def parse_frames(buf: bytearray) -> list:
    """Split complete frames off ``buf`` (mutated in place).

    Returns ``(crc_ok, src, epoch, seq, kind, tag, count, body)`` tuples;
    a partial frame tail stays in the buffer for the next read."""
    frames = []
    while len(buf) >= _HDR.size:
        length, src, epoch, seq, kind, tag, count = _HDR.unpack_from(buf, 0)
        if length < _HDR.size + _CRC.size or len(buf) < length:
            if length < _HDR.size + _CRC.size:
                # Unframeable garbage: drop the buffer, the senders'
                # retransmissions arrive on fresh connections.
                buf.clear()
            break
        raw = bytes(buf[:length])
        del buf[:length]
        (crc,) = _CRC.unpack_from(raw, length - _CRC.size)
        ok = (zlib.crc32(raw[4 : length - _CRC.size]) & 0xFFFFFFFF) == crc
        frames.append((ok, src, epoch, seq, kind, tag, count, raw[_HDR.size : -_CRC.size]))
    return frames


def _recv(sock) -> bytes | None:
    """What ``sock`` has: b"" once the peer is gone, None if nothing yet."""
    try:
        return sock.recv(65536)
    except (BlockingIOError, InterruptedError):
        return None
    except OSError:
        return b""


def _send(sock, buf: bytearray) -> bool:
    """Send what ``sock`` takes off the front of ``buf``; False if gone."""
    try:
        del buf[: sock.send(buf)]
    except (BlockingIOError, InterruptedError):
        pass
    except OSError:
        return False
    return True


class _Link:
    """One exchange's sending end for one peer: a (re)connecting socket,
    the outbound byte queue, the peer's ``Sender`` (whose unacked ledger
    holds ``(tag, count, body)`` payloads) and a retransmit timer per
    unacked seq."""

    __slots__ = (
        "peer", "sock", "state", "outbuf", "inbuf", "sender", "resend_at",
        "connect_attempts", "retry_at", "last_cause",
    )

    def __init__(self, peer: int, sender: Sender):
        self.peer = peer
        self.sock: socket.socket | None = None
        self.state = "idle"  # idle | connecting | open | done | failed
        self.outbuf = bytearray()
        self.inbuf = bytearray()
        self.sender = sender
        self.resend_at: dict[int, float] = {}
        self.connect_attempts = 0
        self.retry_at = 0.0
        self.last_cause: str | None = None

    def close(self) -> None:
        if self.sock is not None:
            with suppress(OSError):
                self.sock.close()
            self.sock = None


class TcpSlabTransport:
    """One worker's end of the socket data plane (lives in the worker
    process; constructed post-fork from the inherited listening socket).

    ``exchange`` is the whole per-superstep protocol: connect to every
    peer with pending slabs, stream the data frames, collect acks, accept
    and ack the peers' inbound frames, and return the received slab parts
    — or a ``{peer: cause}`` failure report when a peer could not be
    reached inside the deadline."""

    def __init__(self, wid: int, listener, ports, epochs):
        self.wid = wid
        self._listener = listener
        if listener is not None:
            listener.setblocking(False)
        self._ports = list(ports)
        self._epochs = list(epochs)
        #: ``tcp.*`` counts since the last ``take_counts``, keyed by
        #: ``(family, ((label, value), ...))``: the worker ships them in
        #: its exchange reply and the parent meters them
        self.counts: dict[tuple, int] = {}
        #: this epoch's streams: a Sender per destination, Receiver per source
        self._senders: dict[int, Sender] = {}
        self._receivers: dict[int, Receiver] = {}

    # -- metering -------------------------------------------------------

    def _inc(self, name: str, amount: int = 1, **labels) -> None:
        key = (name, tuple(labels.items()))
        self.counts[key] = self.counts.get(key, 0) + amount

    def take_counts(self) -> dict[tuple, int]:
        """The counts so far; counting starts again from none."""
        counts, self.counts = self.counts, {}
        return counts

    # -- lifecycle ------------------------------------------------------

    def update_peers(self, ports, epochs) -> None:
        """Apply the parent's current port/epoch map (broadcast with every
        exchange command).  Every recovery bumps every epoch, ours too, and
        a new epoch starts fresh streams both ways."""
        if list(epochs) != self._epochs:
            self._epochs = list(epochs)
            self._senders.clear()
            self._receivers.clear()
        self._ports = list(ports)

    def close_listener(self) -> None:
        """Close the listening socket (the netsplit fault: peers'
        connects fail with ECONNREFUSED from here on)."""
        if self._listener is not None:
            with suppress(OSError):
                self._listener.close()
            self._listener = None

    # -- the exchange round ---------------------------------------------

    def exchange(self, outgoing: dict, expected: dict, deadline_s: float):
        """Run one slab-exchange round against every peer.

        ``outgoing`` maps peer wid -> list of ``(tag, count, body)`` to
        deliver (``body``: a part in the codec's wire layout); ``expected``
        maps peer wid -> number of data frames that peer's directory says
        it is sending here.  Returns ``(parts, report)``: ``parts`` maps
        source wid -> received ``(tag, part)`` pairs, ``report`` maps peer
        wid -> failure cause; a non-empty report means the exchange was
        abandoned and ``parts`` must be discarded by the caller."""
        now = time.monotonic()
        deadline = now + deadline_s
        links: dict[int, _Link] = {}
        for peer, frames in outgoing.items():
            if not frames:
                continue
            sender = self._senders.setdefault(peer, Sender(_MAX_ATTEMPTS))
            link = links[peer] = _Link(peer, sender)
            for frame in frames:
                sender.attempt(sender.stamp(frame))  # sent once the link opens
        pending_recv = {p: n for p, n in expected.items() if n > 0}
        parts: dict[int, list] = {}
        inbound: list = []  # accepted connections: [sock, rbuf, outbuf]
        report: dict[int, str] = {}

        def fail(peer: int, cause: str) -> None:
            if peer not in report:
                report[peer] = cause
                self._inc("tcp.peer_failures", cause=cause)

        def start_connect(link: _Link, now: float) -> None:
            link.connect_attempts += 1
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setblocking(False)
            link.sock = sock
            link.state = "connecting"
            self._inc("tcp.connects")
            code = sock.connect_ex(("127.0.0.1", self._ports[link.peer]))
            if code not in (0, errno.EINPROGRESS, errno.EWOULDBLOCK):
                connect_failed(link, code, now)

        def connect_failed(link: _Link, code: int, now: float) -> None:
            lost(link, "refused" if code == errno.ECONNREFUSED else "reset", now)

        def link_reset(link: _Link, now: float) -> None:
            if link.sender.unacked:
                # Mid-stream loss: re-queue every unacked frame on a fresh
                # connection (the peer's receiver drops overlap as duplicates).
                lost(link, "reset", now)
            else:
                # Nothing in flight: the peer acked every frame, finished
                # its own exchange and closed its end.  This link is done —
                # reconnecting would only make us wait out the backoff.
                link.close()
                link.state = "done"

        def lost(link: _Link, cause: str, now: float) -> None:
            # Reconnect after a backoff, or fail the peer out of attempts.
            link.close()
            link.outbuf.clear()
            link.last_cause = cause
            if link.connect_attempts >= _MAX_CONNECT_ATTEMPTS:
                link.state = "failed"
                fail(link.peer, cause)
            else:
                link.state = "idle"
                link.retry_at = now + _ACK_BASE * (1 << link.connect_attempts)
                self._inc("tcp.reconnects")

        def data_frame(link: _Link, seq: int) -> bytes:
            tag, count, body = link.sender.unacked[seq][1]
            return pack_frame(self.wid, self._epochs[self.wid], seq, _KIND_DATA, tag, count, body)

        def queue_unacked(link: _Link, now: float) -> None:
            for seq in link.sender.unacked:
                raw = data_frame(link, seq)
                link.outbuf += raw
                link.resend_at[seq] = now + _ACK_BASE * link.sender.wait(seq)
                self._inc("tcp.frames_sent")
                self._inc("tcp.bytes_sent", len(raw))

        def handle_frame(frame, conn_outbuf: bytearray) -> None:
            ok, src, epoch, seq, kind, tag, count, body = frame
            if kind == _KIND_ACK:
                return  # acks never arrive on inbound connections
            if not ok:
                # Discard-unacked: the sender retransmits.
                self._inc("tcp.checksum_failures")
                return
            if not 0 <= src < len(self._epochs) or epoch != self._epochs[src]:
                # An abandoned stream's straggler (a connection that sat in
                # our listen backlog across a recovery): dropped unacked,
                # nothing retransmits it.
                self._inc("tcp.stale_frames")
                return
            try:
                part = read_part(body, count)
            except ValueError:
                # A body shorter than its count says: dropped unacked,
                # like a checksum failure, before anything counts it in.
                self._inc("tcp.malformed_frames")
                return
            self._inc("tcp.frames_received")
            self._inc("tcp.bytes_received", _HDR.size + len(body) + _CRC.size)
            verdict = self._receivers.setdefault(src, Receiver()).accept(seq)
            conn_outbuf += pack_frame(self.wid, self._epochs[self.wid], seq, _KIND_ACK, 0, 0, b"")
            if verdict is DUPLICATE:
                self._inc("tcp.dedup_hits")  # re-acked: its ack raced a timer
                return
            if verdict is PARKED:
                self._inc("tcp.reorders")
            if src not in pending_recv and not parts.get(src):
                return  # stale straggler from an unexpected source
            parts.setdefault(src, []).append((tag, part))
            if src in pending_recv:
                pending_recv[src] -= 1
                if pending_recv[src] <= 0:
                    del pending_recv[src]

        try:
            while True:
                now = time.monotonic()
                for link in links.values():
                    if link.state == "idle" and now >= link.retry_at:
                        start_connect(link, now)
                        if link.state == "open":
                            queue_unacked(link, now)
                # retransmit timers
                for link in links.values():
                    if link.state != "open":
                        continue
                    for seq, resend_at in list(link.resend_at.items()):
                        if now < resend_at:
                            continue
                        try:
                            backoff = link.sender.attempt(seq)
                        except TransportError:
                            link.state = "failed"
                            fail(link.peer, "timeout")
                            break
                        link.resend_at[seq] = now + _ACK_BASE * link.sender.wait(seq)
                        link.outbuf += data_frame(link, seq)
                        self._inc("tcp.retransmits")
                        self._inc("tcp.backoff_units", backoff)
                if report:
                    return parts, report
                sending = [l for l in links.values() if l.state in ("connecting", "open")]
                done_send = all(
                    l.state == "done"
                    or (l.state == "open" and not l.sender.unacked and not l.outbuf)
                    for l in links.values()
                )
                acks_flushed = all(len(entry[2]) == 0 for entry in inbound)
                if done_send and not pending_recv and acks_flushed:
                    return parts, {}
                if now >= deadline:
                    for peer in pending_recv:
                        fail(peer, "timeout")
                    for link in links.values():
                        if link.sender.unacked or link.outbuf or link.state not in ("open", "done"):
                            fail(link.peer, link.last_cause or "timeout")
                    return parts, report  # empty: only unflushed acks remained
                rlist: list = [entry[0] for entry in inbound]
                if self._listener is not None:
                    rlist.append(self._listener)
                wlist: list = []
                for link in sending:
                    rlist.append(link.sock)
                    if link.state == "connecting" or link.outbuf:
                        wlist.append(link.sock)
                for entry in inbound:
                    if entry[2]:
                        wlist.append(entry[0])
                if not rlist and not wlist:
                    time.sleep(_TICK)
                    continue
                try:
                    readable, writable, _x = select.select(rlist, wlist, [], _TICK)
                except (OSError, ValueError):
                    # A socket died between ticks; drop closed entries.
                    inbound = [e for e in inbound if e[0].fileno() >= 0]
                    continue
                writable_set = set(writable)
                readable_set = set(readable)
                for link in list(links.values()):
                    sock = link.sock
                    if sock is None:
                        continue
                    if link.state == "connecting" and sock in writable_set:
                        code = sock.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR)
                        if code:
                            connect_failed(link, code, now)
                            continue
                        link.state = "open"
                        queue_unacked(link, now)
                    if link.state == "open" and link.outbuf and sock in writable_set:
                        if not _send(sock, link.outbuf):
                            link_reset(link, now)
                            continue
                    if link.state == "open" and sock in readable_set:
                        data = _recv(sock)
                        if data == b"":
                            link_reset(link, now)
                            continue
                        if data:
                            link.inbuf += data
                            for frame in parse_frames(link.inbuf):
                                ok, _src, _ep, seq, kind, _t, _c, _b = frame
                                if kind == _KIND_ACK and ok:
                                    link.sender.ack(seq)
                                    link.resend_at.pop(seq, None)
                                    self._inc("tcp.acks_received")
                if self._listener is not None and self._listener in readable_set:
                    while True:
                        try:
                            conn, _addr = self._listener.accept()
                        except OSError:  # BlockingIOError: accepted them all
                            break
                        conn.setblocking(False)
                        inbound.append([conn, bytearray(), bytearray()])
                next_inbound = []
                for entry in inbound:
                    sock, rbuf, outbuf = entry
                    alive = True
                    if sock in readable_set:
                        data = _recv(sock)
                        if data == b"":
                            alive = False
                        elif data:
                            rbuf += data
                            for frame in parse_frames(rbuf):
                                handle_frame(frame, outbuf)
                    if alive and outbuf and sock in writable_set:
                        alive = _send(sock, outbuf)
                    if alive:
                        next_inbound.append(entry)
                    else:
                        with suppress(OSError):
                            sock.close()
                inbound = next_inbound
        finally:
            for link in links.values():
                link.close()
            for entry in inbound:
                with suppress(OSError):
                    entry[0].close()
