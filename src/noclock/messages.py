"""Protocol envelopes and their wire sizes.

Payloads are tuples of bits.  `frame_bits` counts everything except protocol
payload bits; the split matters because instance bit budgets and the silence
property are stated over payload bits, while amortized totals count both.
The kernel prices an envelope of a send set with these two methods, and
checks it with `well_formed`, once per run of receivers given that object.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .params import Params

Label = Tuple[int, int]          # (initiator, stamp)
Payload = Tuple[int, ...]        # protocol payload bits
MSG_TAG_BITS = 3                 # which of the envelope kinds this is


class _Envelope:
    __slots__ = ()

    def payload_bits(self) -> int:
        return 0


@dataclass(frozen=True, slots=True)
class Update(_Envelope):
    values: tuple      # one clock value or None per node

    def frame_bits(self, p: Params) -> int:
        # One presence bit and one value per node.
        return MSG_TAG_BITS + p.n * (1 + p.value_bits)


@dataclass(frozen=True, slots=True)
class Init(_Envelope):
    stamp: int

    def frame_bits(self, p: Params) -> int:
        return MSG_TAG_BITS + p.value_bits


@dataclass(frozen=True, slots=True)
class Echo(_Envelope):
    label: Label

    def frame_bits(self, p: Params) -> int:
        return MSG_TAG_BITS + p.id_bits + p.value_bits


@dataclass(frozen=True, slots=True)
class RoundMsg(_Envelope):
    label: Label
    round: int
    payload: Optional[Payload]   # None is the explicit non-message

    def frame_bits(self, p: Params) -> int:
        # Label, round index and one presence bit.
        return MSG_TAG_BITS + p.id_bits + p.value_bits + p.round_bits + 1

    def payload_bits(self) -> int:
        return 0 if self.payload is None else len(self.payload)


@dataclass(frozen=True, slots=True)
class Garbage(_Envelope):
    """Arbitrary junk the network may deliver before time d."""
    blob: tuple

    def frame_bits(self, p: Params) -> int:
        return 8 * len(self.blob)


# Every envelope kind, the only classes a stored trace may name.
ENVELOPES = (Update, Init, Echo, RoundMsg, Garbage)


def well_formed(msg, p: Params) -> bool:
    """Structural validity, by exact class and field types as the stored-trace
    schema reads them; senders of malformed envelopes are trace-marked."""
    kind = type(msg)
    if kind is Update:
        # Each value is None or passes `Params.clock_value_ok`, inlined:
        # updates are the bulk of all traffic.
        values, mod = msg.values, p.clock_modulus
        if type(values) is not tuple or len(values) != p.n:
            return False
        for v in values:
            if v is not None and not (type(v) is int and 0 <= v < mod):
                return False
        return True
    if kind is Init:
        return p.clock_value_ok(msg.stamp)
    if kind is not Echo and kind is not RoundMsg:
        return False
    label = msg.label
    ok = (type(label) is tuple and len(label) == 2 and type(label[0]) is int
          and 0 <= label[0] < p.n and p.clock_value_ok(label[1]))
    if kind is Echo or not ok:
        return ok
    payload = msg.payload
    return type(msg.round) is int and (payload is None or (
        type(payload) is tuple
        and all(type(b) is int and 0 <= b <= 1 for b in payload)))
