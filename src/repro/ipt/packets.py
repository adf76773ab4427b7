"""IPT packet byte formats.

The wire format is modelled on real Intel PT with simplified headers:

==========  =========================  =====================================
packet      encoding                   meaning
==========  =========================  =====================================
PAD         ``00``                     padding
TNT         ``02 PP``                  up to 6 taken/not-taken bits in PP;
                                       the highest set bit of PP is a stop
                                       marker, bits below it are branch
                                       outcomes, oldest in the MSB position
TIP         ``0D NN <NN bytes>``       target IP of an indirect branch or
                                       near return; NN low-order IP bytes,
                                       upper bytes inherited from the
                                       last IP (IP compression)
TIP.PGE     ``11 NN <NN bytes>``       tracing (re-)enabled at IP
TIP.PGD     ``21 NN <NN bytes>``       tracing disabled (NN may be 0:
                                       "IP suppressed")
FUP         ``1D NN <NN bytes>``       source IP of an asynchronous event,
                                       also emitted after PSB to publish
                                       the current IP
PSB         ``82 02`` x4               stream synchronisation boundary;
                                       resets IP compression state
PSBEND      ``23``                     end of PSB+ context packets
OVF         ``F3``                     output buffer overflow
==========  =========================  =====================================

Like the real encoding, *the packet stream never says what kind of
instruction produced a TIP* — a ret, an indirect call and an indirect
jump are indistinguishable at the packet layer (§3.1).
"""

from __future__ import annotations

from typing import Optional, Tuple

PAD_BYTE = 0x00
TNT_HEADER = 0x02
TIP_HEADER = 0x0D
TIP_PGE_HEADER = 0x11
TIP_PGD_HEADER = 0x21
FUP_HEADER = 0x1D
PSBEND_BYTE = 0x23
OVF_BYTE = 0xF3

#: PSB sync pattern.  Real IPT uses a 16-byte alternating pattern so that
#: payload bytes cannot alias a full boundary; 8 bytes keeps the same
#: property at our packet sizes.
PSB_PATTERN = bytes([0x82, 0x02] * 4)

#: Allowed IP payload widths (bytes), mirroring IPBytes compression.
IP_WIDTHS = (0, 1, 2, 4, 6, 8)

#: ``(last_ip ^ target).bit_length()`` -> the minimal IP payload width
#: whose low-order bytes cover every bit in which ``target`` differs
#: from ``last_ip`` (at least one byte: a repeated IP still carries a
#: payload).  65 entries; a wider difference is not a 64-bit address.
IP_WIDTH_FOR_BITS = tuple(
    next(w for w in IP_WIDTHS[1:] if 8 * w >= bits) for bits in range(65)
)

_U64_MAX = (1 << 64) - 1

MAX_TNT_BITS = 6


class PacketError(Exception):
    """Malformed packet stream."""


_IP_HEADERS = (TIP_HEADER, TIP_PGE_HEADER, TIP_PGD_HEADER, FUP_HEADER)


def encode_tnt(bits: Tuple[bool, ...]) -> bytes:
    """Encode up to 6 TNT bits into a 2-byte TNT packet."""
    if not 0 < len(bits) <= MAX_TNT_BITS:
        raise PacketError(f"TNT packet must carry 1..6 bits, got {len(bits)}")
    payload = 1
    for bit in bits:
        payload = (payload << 1) | (1 if bit else 0)
    return bytes([TNT_HEADER, payload])


def compress_ip(target: int, last_ip: int) -> Tuple[int, bytes]:
    """Choose the minimal IP payload width for ``target``.

    Returns ``(width, payload_bytes)`` such that patching the ``width``
    low-order bytes of ``last_ip`` with the payload reconstructs
    ``target`` — the IPBytes compression scheme.
    """
    if not (0 <= target <= _U64_MAX and 0 <= last_ip <= _U64_MAX):
        raise PacketError(f"cannot encode IP {target:#x}")
    width = IP_WIDTH_FOR_BITS[(last_ip ^ target).bit_length()]
    return width, (target & ((1 << (8 * width)) - 1)).to_bytes(
        width, "little"
    )


def encode_ip_packet(header: int, target: Optional[int],
                     last_ip: int) -> Tuple[bytes, int]:
    """Encode a TIP/FUP-family packet.

    Returns the bytes and the new ``last_ip``.  ``target=None`` emits an
    IP-suppressed packet (width 0), leaving ``last_ip`` unchanged.
    """
    if header not in _IP_HEADERS:
        raise PacketError(f"not an IP packet header: {header:#x}")
    if target is None:
        return bytes([header, 0]), last_ip
    width, payload = compress_ip(target, last_ip)
    return bytes([header, width]) + payload, target


# -- packed TNT signatures ---------------------------------------------------
#
# The columnar engine and the batched search index pass TNT runs around
# as *signatures*: a single int whose low bits are the branch outcomes
# (oldest first, MSB-side) under a leading 1 marker bit, exactly the TNT
# payload convention but without the 6-bit width cap.  The marker makes
# the empty run (sig == 1) distinct from a run of not-taken bits, and
# packing is injective, so signature equality == tuple equality.


def pack_tnt_sig(bits) -> int:
    """Pack branch bits (oldest first) into a 1-prefixed signature."""
    sig = 1
    for bit in bits:
        sig = (sig << 1) | (1 if bit else 0)
    return sig


def unpack_tnt_sig(sig: int) -> Tuple[bool, ...]:
    """Inverse of :func:`pack_tnt_sig`."""
    count = sig.bit_length() - 1
    return tuple(
        bool((sig >> position) & 1)
        for position in range(count - 1, -1, -1)
    )


def compose_tnt_sigs(front: int, back: int) -> int:
    """Concatenate two signatures: ``front``'s bits precede ``back``'s.

    This is how segment stitching prepends a segment's trailing TNT run
    onto the first TIP of the next segment without unpacking either.
    """
    width = back.bit_length() - 1
    return (front << width) | (back ^ (1 << width))
