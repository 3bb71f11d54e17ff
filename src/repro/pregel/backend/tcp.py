"""Real TCP (loopback) slab exchange for the mp backend.

``--transport tcp`` replaces the shared-memory *cross-worker* data plane
with actual sockets: every worker owns a loopback listening socket (bound
in the parent before the fork so the full port map is known to every
process), and each exchange round moves the columnar message slabs
between workers as length-prefixed frames over real kernel TCP buffers;
a data frame's body is one slab part in the layout :mod:`.codec` owns.
Worker-local slabs and the parent's in-flight log keep using the
shared-memory segments — the sockets carry exactly the traffic that
would cross a network on a real cluster.

The protocol deliberately mirrors :mod:`repro.pregel.net`'s reliable
delivery discipline, applied to a real channel instead of the simulated
one:

* **per-destination sequence numbers** — every data frame a worker sends
  to a given peer carries a monotonically increasing sequence number for
  that (sender, destination) stream, stamped with the sender's fork
  *epoch* so a re-forked worker starts a fresh stream;
* **ack / bounded retransmit with exponential backoff** — the receiver
  acks every accepted frame on the same connection; an unacked frame is
  retransmitted after ``ack_base * 2**attempt`` seconds (metered in
  ``tcp.retransmits`` / ``tcp.backoff_units``, capped like the simulated
  transport's backoff shift) up to a bounded attempt count;
* **dedup + reorder accounting** — a per-(sender, epoch) seen-set drops
  duplicate deliveries (an ack raced a retransmit timer) and re-acks
  them (``tcp.dedup_hits``); sequence gaps are metered as
  ``tcp.reorders``.  The seen-set persists across supersteps, so a
  retransmission that straggles into the *next* exchange round is
  recognized and re-acked instead of polluting the new inbox;
* **checksum-discard-unacked** — every frame ends in a CRC32 over its
  header and body; a corrupt frame (``tcp.checksum_failures``), or one
  whose body is shorter than its record count says
  (``tcp.malformed_frames``), is dropped without an ack and the sender's
  retransmission recovers it: the simulated channel's corruption contract.

Failure classification is the part simulation cannot exercise: a peer
whose listening socket is gone fails the connect with ECONNREFUSED
(``"refused"`` — a netsplit), a peer that died mid-connection surfaces
ECONNRESET / EPIPE (``"reset"``), and a peer that is merely too slow
exhausts the per-peer deadline (``"timeout"`` — a slowlink or a hang).
The worker abandons the exchange on the first classified failure,
discards the partial inbox, and reports ``{peer: cause}`` to the parent,
which folds the reports into a culprit and escalates through the
ordinary ``ft.recover_worker`` → capped-restart → ``unrecoverable``
degradation path.  Frame arrival order never reaches the algorithm: the
receiver keeps complete per-(source, tag) parts for the same codec merge
the shared-memory path uses, so shm and tcp runs are bit-identical on
``parity_key()`` and outputs by construction.
"""

from __future__ import annotations

import errno
import select
import socket
import struct
import time
import zlib

from .codec import read_part

#: frame header: total_length, src wid, src epoch, seq, kind, tag, count
_HDR = struct.Struct("!IIIIIII")
_CRC = struct.Struct("!I")
_KIND_DATA = 0
_KIND_ACK = 1

#: selector tick — how often the exchange loop re-checks timers while
#: waiting for socket readiness.
_TICK = 0.02

#: retransmit timer base; attempt ``k`` waits ``_ACK_BASE * 2**k``.
_ACK_BASE = 0.05
#: cap on the metered backoff shift, mirroring the simulated transport.
_MAX_BACKOFF_SHIFT = 16
#: bounded retransmit: a frame unacked after this many resends fails the
#: peer with cause="timeout" instead of retrying forever.
_MAX_RETRANSMITS = 6
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


class _Link:
    """Sender-side state for one peer: a (re)connecting socket, the
    outbound byte queue, and the unacked-frame retransmit ledger."""

    __slots__ = (
        "peer", "sock", "state", "outbuf", "inbuf", "unacked",
        "connect_attempts", "retry_at", "last_cause",
    )

    def __init__(self, peer: int):
        self.peer = peer
        self.sock: socket.socket | None = None
        self.state = "idle"  # idle | connecting | open | done | failed
        self.outbuf = bytearray()
        self.inbuf = bytearray()
        #: seq -> [raw_frame, attempt, resend_at]
        self.unacked: dict[int, list] = {}
        self.connect_attempts = 0
        self.retry_at = 0.0
        self.last_cause: str | None = None

    def close(self) -> None:
        if self.sock is not None:
            try:
                self.sock.close()
            except OSError:
                pass
            self.sock = None


class TcpSlabTransport:
    """One worker's end of the socket data plane (lives in the worker
    process; constructed post-fork from the inherited listening socket).

    ``exchange`` is the whole per-superstep protocol: connect to every
    peer with pending slabs, stream the data frames, collect acks, accept
    and ack the peers' inbound frames, and return the received slab parts
    — or a ``{peer: cause}`` failure report when a peer could not be
    reached inside the deadline."""

    def __init__(self, wid: int, listener, ports, epochs, mreg=None):
        self.wid = wid
        self._listener = listener
        if listener is not None:
            listener.setblocking(False)
        self._ports = list(ports)
        self._epochs = list(epochs)
        self.epoch = self._epochs[wid]
        self._mreg = mreg
        self._seq: dict[int, int] = {}
        #: (src, epoch) -> set of accepted seqs (dedup across exchanges)
        self._seen: dict[tuple[int, int], set] = {}
        self._next_expected: dict[tuple[int, int], int] = {}

    # -- metering -------------------------------------------------------

    def _inc(self, name: str, amount: int = 1, **labels) -> None:
        if self._mreg is not None:
            self._mreg.counter(name, **labels).inc(amount)

    # -- lifecycle ------------------------------------------------------

    def update_peers(self, ports, epochs) -> None:
        """Apply the parent's current port/epoch map (broadcast with every
        step command).  A bumped peer epoch means that worker was
        re-forked: its receive state is fresh, so our outbound sequence
        stream to it restarts and its stale dedup state is dropped."""
        for peer, (old, new) in enumerate(zip(self._epochs, epochs)):
            if new != old:
                self._seq.pop(peer, None)
                for key in [k for k in self._seen if k[0] == peer]:
                    del self._seen[key]
                    self._next_expected.pop(key, None)
        self._ports = list(ports)
        self._epochs = list(epochs)

    def close_listener(self) -> None:
        """Close the listening socket (the netsplit fault: peers'
        connects fail with ECONNREFUSED from here on)."""
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
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
            link = links[peer] = _Link(peer)
            for tag, count, body in frames:
                seq = self._seq.get(peer, 0)
                self._seq[peer] = seq + 1
                raw = pack_frame(
                    self.wid, self.epoch, seq, _KIND_DATA, tag, count, body
                )
                link.unacked[seq] = [raw, 0, 0.0]
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
            link.close()
            link.last_cause = (
                "refused" if code == errno.ECONNREFUSED else "reset"
            )
            if link.connect_attempts >= _MAX_CONNECT_ATTEMPTS:
                link.state = "failed"
                fail(link.peer, link.last_cause)
            else:
                link.state = "idle"
                link.retry_at = now + _ACK_BASE * (1 << link.connect_attempts)
                self._inc("tcp.reconnects")

        def link_reset(link: _Link, now: float) -> None:
            # Mid-stream loss: re-queue every unacked frame on a fresh
            # connection (the peer's dedup set absorbs any overlap).
            link.close()
            link.outbuf.clear()
            if not link.unacked:
                # Nothing in flight: the peer acked every frame, finished
                # its own exchange and closed its end.  This link is done —
                # reconnecting would only make us wait out the backoff.
                link.state = "done"
                return
            link.last_cause = "reset"
            if link.connect_attempts >= _MAX_CONNECT_ATTEMPTS:
                link.state = "failed"
                fail(link.peer, "reset")
                return
            link.state = "idle"
            link.retry_at = now + _ACK_BASE * (1 << link.connect_attempts)
            self._inc("tcp.reconnects")

        def queue_unacked(link: _Link, now: float) -> None:
            for seq in sorted(link.unacked):
                raw, attempt, _at = link.unacked[seq]
                link.outbuf += raw
                link.unacked[seq][2] = now + _ACK_BASE * (1 << attempt)
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
                # A dead incarnation's stragglers: a connection that sat in
                # our listen backlog across that peer's re-fork can replay
                # old-epoch frames whose dedup state was already reset.
                # The epoch stamp makes them droppable without an ack (the
                # sender is gone; nothing retransmits).
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
            key = (src, epoch)
            seen = self._seen.setdefault(key, set())
            ack = pack_frame(self.wid, self.epoch, seq, _KIND_ACK, 0, 0, b"")
            if seq in seen:
                self._inc("tcp.dedup_hits")
                conn_outbuf += ack  # re-ack: the original ack raced a timer
                return
            seen.add(seq)
            nxt = self._next_expected.get(key, 0)
            if seq != nxt:
                self._inc("tcp.reorders")
            self._next_expected[key] = max(nxt, seq + 1)
            conn_outbuf += ack
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
                    for seq, entry in list(link.unacked.items()):
                        raw, attempt, resend_at = entry
                        if now < resend_at:
                            continue
                        if attempt >= _MAX_RETRANSMITS:
                            link.last_cause = link.last_cause or "timeout"
                            link.state = "failed"
                            fail(link.peer, "timeout")
                            break
                        entry[1] = attempt + 1
                        entry[2] = now + _ACK_BASE * (
                            1 << min(attempt + 1, _MAX_BACKOFF_SHIFT)
                        )
                        link.outbuf += raw
                        self._inc("tcp.retransmits")
                        self._inc(
                            "tcp.backoff_units",
                            1 << min(attempt, _MAX_BACKOFF_SHIFT),
                        )
                if report:
                    return parts, report
                sending = [
                    l for l in links.values() if l.state in ("connecting", "open")
                ]
                done_send = all(
                    l.state == "done"
                    or (l.state == "open" and not l.unacked and not l.outbuf)
                    for l in links.values()
                )
                acks_flushed = all(len(entry[2]) == 0 for entry in inbound)
                if done_send and not pending_recv and acks_flushed:
                    return parts, {}
                if now >= deadline:
                    for peer in pending_recv:
                        fail(peer, "timeout")
                    for link in links.values():
                        if link.unacked or link.outbuf or link.state not in ("open", "done"):
                            fail(link.peer, link.last_cause or "timeout")
                    if not report:  # only unflushed acks remain: give up clean
                        return parts, {}
                    return parts, report
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
                    readable, writable, _x = select.select(
                        rlist, wlist, [], _TICK
                    )
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
                        code = sock.getsockopt(
                            socket.SOL_SOCKET, socket.SO_ERROR
                        )
                        if code:
                            connect_failed(link, code, now)
                            continue
                        link.state = "open"
                        queue_unacked(link, now)
                    if link.state == "open" and link.outbuf and sock in writable_set:
                        try:
                            sent = sock.send(link.outbuf)
                            del link.outbuf[:sent]
                        except (BlockingIOError, InterruptedError):
                            pass
                        except OSError:
                            link_reset(link, now)
                            continue
                    if link.state == "open" and sock in readable_set:
                        try:
                            data = sock.recv(65536)
                        except (BlockingIOError, InterruptedError):
                            data = None
                        except OSError:
                            link_reset(link, now)
                            continue
                        if data == b"":
                            link_reset(link, now)
                            continue
                        if data:
                            link.inbuf += data
                            for frame in parse_frames(link.inbuf):
                                ok, _src, _ep, seq, kind, _t, _c, _b = frame
                                if kind == _KIND_ACK and ok:
                                    link.unacked.pop(seq, None)
                                    self._inc("tcp.acks_received")
                if self._listener is not None and self._listener in readable_set:
                    while True:
                        try:
                            conn, _addr = self._listener.accept()
                        except (BlockingIOError, InterruptedError):
                            break
                        except OSError:
                            break
                        conn.setblocking(False)
                        inbound.append([conn, bytearray(), bytearray()])
                next_inbound = []
                for entry in inbound:
                    sock, rbuf, outbuf = entry
                    alive = True
                    if sock in readable_set:
                        try:
                            data = sock.recv(65536)
                        except (BlockingIOError, InterruptedError):
                            data = None
                        except OSError:
                            data, alive = b"", False
                        if data == b"":
                            alive = False
                        elif data:
                            rbuf += data
                            for frame in parse_frames(rbuf):
                                handle_frame(frame, outbuf)
                    if alive and outbuf and sock in writable_set:
                        try:
                            sent = sock.send(outbuf)
                            del outbuf[:sent]
                        except (BlockingIOError, InterruptedError):
                            pass
                        except OSError:
                            alive = False
                    if alive:
                        next_inbound.append(entry)
                    else:
                        try:
                            sock.close()
                        except OSError:
                            pass
                inbound = next_inbound
        finally:
            for link in links.values():
                link.close()
            for entry in inbound:
                try:
                    entry[0].close()
                except OSError:
                    pass
