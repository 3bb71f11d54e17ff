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
"""

from __future__ import annotations

import struct
from itertools import repeat

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
