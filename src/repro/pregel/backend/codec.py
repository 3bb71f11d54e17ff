"""Typed message codec: schema-driven struct packing for message slabs.

Messages in the simulator are Python tuples ``(tag, *payload)``.  The
columnar and multiprocessing backends put the same messages on a *wire*:
per-tag byte slabs of fixed-layout records (``struct`` packed, standard
sizes, little-endian) with a parallel destination-id array.  This module
builds, per message tag, the pack/unpack closures that translate between
the two representations **exactly** — the decoded tuples compare equal to
the tuples the simulator would have delivered:

* Float payloads travel as 8-byte doubles (CPython floats are doubles);
* integral payloads that may carry Green-Marl's INF use a reserved
  sentinel (``INT32_MAX``/``INT32_MIN``, or the 64-bit pair for Long) and
  are re-integerized on the way in, so an escalated double column's
  ``5.0`` arrives as the ``5`` the simulator sends;
* Bool payloads pack as one byte and decode to ``True``/``False``;
* tagged programs lead each record with the tag byte, so ``iter_unpack``
  yields the exact ``(tag, *payload)`` tuple with zero per-record work.

The module also owns the slab **part** — one tag's records as the tuple
``(dsts, senders, payload, count)``: two ``int32`` arrays (receiving and
sending vertex of each record) and the ``count`` packed records.  Its byte
layout, ``dsts | senders | payload``, is the same in an ``mp`` worker's
shared-memory segment, an inline overflow entry and a tcp frame body, and
only :func:`write_part` / :func:`read_part` know it; :func:`split_by_owner`
cuts one tag's staged records into one part per receiving worker, and
:meth:`MessageCodec.merge_parts` / :meth:`MessageCodec.by_receiver` turn
parts back into the simulator's per-receiver delivery order.
"""

from __future__ import annotations

import struct
from itertools import repeat

import numpy as np

from ...pregelir.ir import INF_VALUE
from ...pregelir.schema import (
    INT32_MAX,
    INT32_MIN,
    INT64_MAX,
    INT64_MIN,
    ProgramSchema,
    SlotSchema,
    TagSchema,
)


def slot_range(slot: SlotSchema) -> tuple[int, int]:
    """The integers an integral wire slot's struct code can carry."""
    return (INT64_MIN, INT64_MAX) if slot.code == "q" else (INT32_MIN, INT32_MAX)


def wire_range_error(tag: int, slot: SlotSchema, value) -> ValueError:
    """The one error every staging path raises for an integral payload
    value its wire slot cannot carry."""
    lo, hi = slot_range(slot)
    reserved = " (the bounds are reserved for -INF/+INF)" if slot.inf_sentinel else ""
    return ValueError(
        f"cannot encode integral payload value {value!r} in slot "
        f"'{slot.name}' of message tag {tag}: the {8 * slot.size}-bit wire "
        f"slot carries {lo}..{hi}{reserved}"
    )


def wire_integral_error(tag: int, slot: SlotSchema, value) -> ValueError:
    """The one error every staging path raises for a payload value that is
    not a whole number in an integral wire slot (the simulator delivers it
    as it is; packing it would truncate)."""
    return ValueError(
        f"cannot encode non-integral payload value {value!r} in slot "
        f"'{slot.name}' of message tag {tag}: the {8 * slot.size}-bit wire "
        f"slot carries whole numbers only"
    )


def _encoder(tag: int, slot: SlotSchema):
    """Value -> struct-packable value for one wire slot (None = identity)."""
    if not slot.inf_sentinel:
        return None
    lo, hi = slot_range(slot)

    def enc(v, _lo=lo, _hi=hi):
        if type(v) is int:
            iv = v
        elif v == INF_VALUE:
            return _hi
        elif v == -INF_VALUE:
            return _lo
        else:
            iv = int(v)  # escalated double column carrying an exact int
            if iv != v:
                raise wire_integral_error(tag, slot, v)
        if not _lo < iv < _hi:
            raise wire_range_error(tag, slot, v)
        return iv

    return enc


def _decoder(slot: SlotSchema):
    if not slot.inf_sentinel:
        return None
    lo, hi = slot_range(slot)

    def dec(v, _lo=lo, _hi=hi):
        if v == _hi:
            return INF_VALUE
        if v == _lo:
            return -INF_VALUE
        return v

    return dec


def _make_packer(st: struct.Struct, ts: TagSchema, tagged: bool):
    encoders = [_encoder(ts.tag, s) for s in ts.slots]
    if not ts.slots:
        empty = st.pack(ts.tag) if tagged else b""
        return lambda msg, _e=empty: _e
    if not any(encoders):

        def fail(msg):
            # Called while handling struct.error: an integer the slot
            # cannot hold, or a fractional value for it, is a program value
            # the wire cannot carry, not a codec bug, so name it; anything
            # else re-raises untouched.
            for slot, v in zip(ts.slots, msg[1:]):
                if slot.code not in "iq":
                    continue
                lo, hi = slot_range(slot)
                if type(v) is int and not lo <= v <= hi:
                    raise wire_range_error(ts.tag, slot, v) from None
                if isinstance(v, float) and not v.is_integer():
                    raise wire_integral_error(ts.tag, slot, v) from None
            raise

        def pack_tagged(msg, _p=st.pack):
            try:
                return _p(*msg)
            except struct.error:
                fail(msg)

        def pack_untagged(msg, _p=st.pack):
            try:
                return _p(*msg[1:])
            except struct.error:
                fail(msg)

        return pack_tagged if tagged else pack_untagged

    def pack(msg, _p=st.pack, _encs=encoders, _tagged=tagged):
        vals = [
            e(v) if e is not None else v for e, v in zip(_encs, msg[1:])
        ]
        return _p(msg[0], *vals) if _tagged else _p(*vals)

    return pack


def _make_unpacker(st: struct.Struct, ts: TagSchema, tagged: bool):
    decoders = [_decoder(s) for s in ts.slots]
    tag = ts.tag
    if not ts.slots:
        if tagged:
            return lambda buf, n, _it=st.iter_unpack: list(_it(buf))
        return lambda buf, n, _t=(tag,): list(repeat(_t, n))
    if not any(decoders):
        if tagged:
            return lambda buf, n, _it=st.iter_unpack: list(_it(buf))
        return lambda buf, n, _it=st.iter_unpack, _t=(tag,): [
            _t + rec for rec in _it(buf)
        ]

    head = (tag,) if not tagged else ()

    def unpack(buf, n, _it=st.iter_unpack, _decs=decoders, _head=head, _tagged=tagged):
        out = []
        for rec in _it(buf):
            vals = rec[1:] if _tagged else rec
            body = tuple(
                d(v) if d is not None else v for d, v in zip(_decs, vals)
            )
            out.append((rec[0],) + body if _tagged else _head + body)
        return out

    return unpack


def write_part(out, part, order=None) -> None:
    """Write ``part`` into ``out`` — a ``uint8`` array of the part's size,
    a stretch of a segment or a fresh body — in wire layout: ``dsts |
    senders | payload``.  With ``order``, ``part[2]`` is a whole slab's
    payload and the part's records are the ones at ``order`` in it, taken
    straight into ``out``."""
    dsts, senders, payload, count = part
    out[: 4 * count] = dsts.view(np.uint8)
    out[4 * count : 8 * count] = senders.view(np.uint8)
    records = out[8 * count :]
    if order is None:
        records[:] = np.frombuffer(payload, dtype=np.uint8)
    elif len(records):
        record = f"V{len(records) // count}"
        np.take(np.frombuffer(payload, dtype=record), order, out=records.view(record))


def read_part(body, count: int) -> tuple:
    """Copy the ``count``-record part ``body`` holds in wire layout — a
    stretch of a segment, an inline body or a frame body — out into
    ``(dsts, senders, payload, count)``.  A body shorter than its count
    says raises :class:`ValueError`."""
    if not 0 <= 8 * count <= len(body):
        raise ValueError(
            f"slab part of {count} records needs {8 * count} bytes of "
            f"vertex ids, its body has {len(body)}"
        )
    return (
        np.frombuffer(bytes(body[: 4 * count]), dtype=np.int32),
        np.frombuffer(bytes(body[4 * count : 8 * count]), dtype=np.int32),
        bytes(body[8 * count :]),
        count,
    )


def split_by_owner(dsts, senders, payload, owners, workers: int) -> list:
    """Split one tag's staged records by receiving worker: entry ``w`` is
    the part of the records whose destination worker ``w`` owns
    (``owners[k]`` owns ``dsts[k]``), or None when it owns none.  The split
    is stable, so every part keeps the staged order — ascending sender,
    each sender's records in send order."""
    count = len(dsts)
    if workers == 1:
        return [(dsts, senders, payload, count)]
    size = len(payload) // count
    order = np.argsort(owners, kind="stable")
    dsts, senders = dsts[order], senders[order]
    if size:
        payload = np.frombuffer(payload, dtype=f"V{size}")[order].view(np.uint8)
    parts: list = []
    a = 0
    for b in np.cumsum(np.bincount(owners, minlength=workers)).tolist():
        parts.append(
            (dsts[a:b], senders[a:b], payload[a * size : b * size], b - a)
            if b > a
            else None
        )
        a = b
    return parts


class MessageCodec:
    """Per-tag pack/unpack closures plus the wire sizes, from a schema."""

    def __init__(self, schema: ProgramSchema):
        self.schema = schema
        self.tag_ids: list[int] = sorted(schema.tags)
        self.sizes: dict[int, int] = {}
        self.pack: dict[int, object] = {}
        self.unpack: dict[int, object] = {}
        for tag in self.tag_ids:
            ts = schema.tags[tag]
            st = struct.Struct(ts.fmt)
            if ts.slots and st.size != ts.size:
                raise AssertionError(
                    f"schema size drift on tag {tag}: struct {st.size} "
                    f"vs schema {ts.size}"
                )
            self.sizes[tag] = ts.size
            self.pack[tag] = _make_packer(st, ts, schema.tagged)
            self.unpack[tag] = _make_unpacker(st, ts, schema.tagged)

    def merge_parts(self, tag: int, parts: list, by_sender: bool = True) -> tuple:
        """One tag's parts as one ``(dsts, payload, count)`` slab.  Each
        part holds one source worker's records in ascending-sender order; a
        stable sort on sender merges several into the simulator's global
        send order — skipped for a lone part, which is in it already, and
        when the caller's fold does not observe order (``by_sender``)."""
        if len(parts) == 1:
            dsts, _senders, payload, count = parts[0]
            return dsts, payload, count
        dsts = np.concatenate([part[0] for part in parts])
        payload = b"".join(part[2] for part in parts)
        if by_sender:
            order = np.argsort(
                np.concatenate([part[1] for part in parts]), kind="stable"
            )
            dsts = dsts[order]
            if payload:
                payload = np.frombuffer(payload, dtype=f"V{self.sizes[tag]}")[order]
        return dsts, payload, len(dsts)

    def by_receiver(self, tag: int, parts: list):
        """Decode one tag's parts into ``(dst, msgs)`` pairs, one per
        receiver: ``msgs`` are its messages in the simulator's delivery
        order — ascending sender, each sender's in send order.  Receive
        code reads messages through tag-filtered loops, so handing them
        over tag by tag is invisible.  One stable sort by destination turns
        the bucket fills into list slices instead of per-record appends."""
        dsts, payload, count = self.merge_parts(tag, parts)
        if not count:
            return ()
        records = self.unpack[tag](payload, count)
        order = np.argsort(dsts, kind="stable")
        sorted_dsts = dsts[order]
        sorted_recs = [records[i] for i in order.tolist()]
        cuts = (np.flatnonzero(sorted_dsts[1:] != sorted_dsts[:-1]) + 1).tolist()
        starts = [0, *cuts]
        return zip(
            sorted_dsts[starts].tolist(),
            [sorted_recs[a:b] for a, b in zip(starts, [*cuts, count])],
        )
