"""The per-core IPT packetizer.

Subscribes to the CPU's CoFI event bus and emits compressed packets into
a ToPA buffer according to Table 3:

- direct jumps/calls: no output,
- conditional branches: one TNT bit, flushed 6 to a packet,
- indirect jumps/calls/returns: TIP,
- far transfers (syscalls): FUP(source) + TIP.PGD, then TIP.PGE(resume)
  when user-only filtering blanks the kernel excursion.

Like the hardware, the encoder filters at the source: it subscribes to
the bus for :data:`ENCODER_KINDS` only, so a direct JMP or CALL costs
the interpreter no call-out at all (``on_branch`` still ignores one
delivered by an all-kinds subscription).  Pending TNT bits live in one
int that *is* the TNT payload — the stop-marker bit, then the outcomes,
oldest first — so a full packet is a single table lookup.

A PSB+ group (PSB, FUP with the current IP, PSBEND) is inserted every
``psb_period`` output bytes so decoders can synchronise mid-stream.

Two entry points write the same packets.  :meth:`IPTEncoder.on_branch`
takes one event and writes each packet as it forms, so a PMI raised by
a region that fills mid-event sees the encoder's state at that packet.
:meth:`IPTEncoder.on_run` takes a *run* of events the CPU deferred while
no region could fill (at most :meth:`IPTEncoder.run_room` of them, each
writing at most :data:`MAX_EVENT_BYTES`): it reads the config and CR3
once, builds the run's packets in one buffer and makes one ToPA write,
with the same ``cycles`` additions in the same order.  The dispatch loop
(:mod:`repro.cpu.executor`) hands the encoder runs while it is the only
subscriber of its kinds, and calls ``on_branch`` for every other event.

Tracing cost is charged per emitted byte (:data:`repro.costs`), the
source of IPT's ~3% tracing overhead versus BTS's per-record stalls.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro import costs
from repro.cpu.events import BranchEvent, CoFIKind
from repro.ipt.msr import RTIT_CTL, IPTConfig
from repro.ipt.packets import (
    FUP_HEADER,
    IP_WIDTH_FOR_BITS,
    PSBEND_BYTE,
    PSB_PATTERN,
    PacketError,
    TIP_HEADER,
    TIP_PGD_HEADER,
    TIP_PGE_HEADER,
    TNT_HEADER,
)
from repro.ipt.topa import ToPA

#: The CoFI kinds that produce packets (Table 3) — what the encoder
#: subscribes to on the CPU's event bus.
ENCODER_KINDS = frozenset({
    CoFIKind.COND_BRANCH,
    CoFIKind.INDIRECT_JMP,
    CoFIKind.INDIRECT_CALL,
    CoFIKind.RET,
    CoFIKind.FAR_TRANSFER,
})

_ON = RTIT_CTL.TRACE_EN | RTIT_CTL.BRANCH_EN
_CR3_FILTER = RTIT_CTL.CR3_FILTER
_COND = CoFIKind.COND_BRANCH
_FAR = CoFIKind.FAR_TRANSFER
_DIRECT_JMP = CoFIKind.DIRECT_JMP
_DIRECT_CALL = CoFIKind.DIRECT_CALL

_BYTE_CYCLES = costs.IPT_TRACE_CYCLES_PER_BYTE
#: A TNT packet accumulator reaches this value at its sixth bit.
_TNT_FULL = 0x40
#: accumulator value -> its TNT packet bytes.
_TNT_PACKETS = tuple(bytes((TNT_HEADER, payload)) for payload in range(0x80))
_TNT_CYCLES = 2 * _BYTE_CYCLES
_PSB_CYCLES = len(PSB_PATTERN) * _BYTE_CYCLES
_PSBEND = bytes((PSBEND_BYTE,))
_PGD_SUPPRESSED = bytes((TIP_PGD_HEADER, 0))
_PGD_CYCLES = len(_PGD_SUPPRESSED) * _BYTE_CYCLES
#: ``(last_ip ^ target).bit_length()`` -> (payload width, packet
#: length, payload mask) of the IP packet that encodes ``target``.
_IP_FORMS = tuple(
    (width, width + 2, (1 << (8 * width)) - 1) for width in IP_WIDTH_FOR_BITS
)
_MAX_IP_PACKET = _IP_FORMS[-1][1]
#: A bound on the bytes one event writes: a TNT flush, a PSB+ group and
#: a FUP/TIP.PGD/TIP.PGE group, with every IP packet at full width (43).
#: The largest event that can occur writes 36: a far transfer that
#: lands on a due PSB with TNT bits pending, whose FUP then compresses
#: against the PSB's.
MAX_EVENT_BYTES = (
    len(_TNT_PACKETS[1])
    + len(PSB_PATTERN) + _MAX_IP_PACKET + len(_PSBEND)
    + _MAX_IP_PACKET + len(_PGD_SUPPRESSED) + _MAX_IP_PACKET
)


class IPTEncoder:
    """One core's trace unit: config + packet generation state."""

    def __init__(
        self,
        config: IPTConfig,
        output: Optional[ToPA] = None,
        current_cr3: Optional[Callable[[], Optional[int]]] = None,
    ) -> None:
        self.config = config
        self.output = output if output is not None else ToPA.flowguard_default()
        #: Callable returning the CR3 of the currently running context;
        #: the kernel wires this to the scheduled process.  Read on
        #: every event the CR3 filter applies to (execve changes it).
        self.current_cr3 = current_cr3 or (lambda: None)
        #: Pending TNT packet payload: a 1 marker bit followed by the
        #: buffered outcomes (1 = nothing pending).
        self._tnt = 1
        self._last_ip = 0
        self._bytes_since_psb = 0
        self._started = False
        self.cycles = 0.0
        self.packets_emitted = 0

    # -- plumbing ---------------------------------------------------------

    def _write(self, data: bytes) -> None:
        self.output.write(data)
        self.cycles += len(data) * _BYTE_CYCLES
        self._bytes_since_psb += len(data)
        self.packets_emitted += 1

    def _ip_packet(self, header: int, target: int) -> bytes:
        """The IP packet for ``target``, compressed against (and
        updating) the last IP."""
        try:
            width, length, mask = _IP_FORMS[
                (self._last_ip ^ target).bit_length()
            ]
        except IndexError:
            raise PacketError(f"cannot encode IP {target:#x}") from None
        self._last_ip = target
        return ((target & mask) << 16 | width << 8 | header).to_bytes(
            length, "little"
        )

    def _emit_psb_group(self, current_ip: int) -> None:
        self._flush_tnt()
        output = self.output
        output.write(PSB_PATTERN)
        self.cycles += _PSB_CYCLES
        # PSB resets IP compression state on both sides.
        self._last_ip = 0
        data = self._ip_packet(FUP_HEADER, current_ip)
        output.write(data)
        output.write(_PSBEND)
        self.cycles += (len(data) + 1) * _BYTE_CYCLES
        self._bytes_since_psb = 0
        self.packets_emitted += 3

    def _flush_tnt(self) -> None:
        tnt = self._tnt
        if tnt != 1:
            # Cleared before the write: a PMI the write raises may call
            # flush() and must find nothing pending.
            self._tnt = 1
            self.output.write(_TNT_PACKETS[tnt])
            self.cycles += _TNT_CYCLES
            self._bytes_since_psb += 2
            self.packets_emitted += 1

    # -- event sink ----------------------------------------------------------

    def on_branch(self, event: BranchEvent) -> None:
        """CoFI retirement hook (CPU event-bus listener)."""
        config = self.config
        ctl = config.ctl
        if ctl & _ON != _ON:
            return
        if ctl & _CR3_FILTER and self.current_cr3() != config.cr3_match:
            return
        kind, src, dst, taken = event
        if kind is _DIRECT_JMP or kind is _DIRECT_CALL:
            return  # no output (Table 3)

        if not self._started or self._bytes_since_psb >= config.psb_period:
            self._emit_psb_group(src)
            self._started = True

        if kind is _COND:
            self._tnt = (self._tnt << 1) | (1 if taken else 0)
            if self._tnt >= _TNT_FULL:
                self._flush_tnt()
            return

        # Indirect branches and far transfers force TNT flush so packet
        # order matches retirement order.
        if self._tnt != 1:
            self._flush_tnt()
        if kind is not _FAR:
            data = self._ip_packet(TIP_HEADER, dst)
            self.output.write(data)
            self.cycles += len(data) * _BYTE_CYCLES
            self._bytes_since_psb += len(data)
            self.packets_emitted += 1
            return
        # User-only tracing: publish the source, mark the excursion
        # into the kernel (IP suppressed), resume at the destination.
        self._write(self._ip_packet(FUP_HEADER, src))
        self._write(_PGD_SUPPRESSED)
        self._write(self._ip_packet(TIP_PGE_HEADER, dst))

    def run_room(self) -> int:
        """How many events :meth:`on_run` may take now with no region
        filling while it writes them."""
        return (self.output.bytes_to_fill() - 1) // MAX_EVENT_BYTES

    def on_run(self, events) -> None:
        """Packetize a run of events exactly as :meth:`on_branch` would
        one by one: the same bytes, ``cycles`` additions and counters.

        The caller hands over at most :meth:`run_room` events, and runs
        no other code between them, so no region fills (no PMI can see
        a half-written run) and the config and CR3 cannot change
        mid-run.
        """
        config = self.config
        ctl = config.ctl
        if ctl & _ON != _ON:
            return
        if ctl & _CR3_FILTER and self.current_cr3() != config.cr3_match:
            return
        period = config.psb_period
        psb_at = period if self._started else 0  # PSB when since >= psb_at
        forms = _IP_FORMS
        tnt = self._tnt
        last_ip = self._last_ip
        since = self._bytes_since_psb
        cycles = self.cycles
        packets = self.packets_emitted
        out = bytearray()
        for kind, src, dst, taken in events:
            if since >= psb_at:
                if kind is _DIRECT_JMP or kind is _DIRECT_CALL:
                    continue
                if tnt != 1:
                    out += _TNT_PACKETS[tnt]
                    tnt = 1
                    cycles += _TNT_CYCLES
                    packets += 1
                out += PSB_PATTERN
                cycles += _PSB_CYCLES
                width, length, mask = forms[src.bit_length()]
                out += ((src & mask) << 16 | width << 8 | FUP_HEADER
                        ).to_bytes(length, "little")
                out += _PSBEND
                cycles += (length + 1) * _BYTE_CYCLES
                last_ip = src
                since = 0
                packets += 3
                psb_at = period
                self._started = True
            if kind is _COND:
                tnt = (tnt << 1) | 1 if taken else tnt << 1
                if tnt >= _TNT_FULL:
                    out += _TNT_PACKETS[tnt]
                    tnt = 1
                    cycles += _TNT_CYCLES
                    since += 2
                    packets += 1
                continue
            if kind is _DIRECT_JMP or kind is _DIRECT_CALL:
                continue
            if tnt != 1:
                out += _TNT_PACKETS[tnt]
                tnt = 1
                cycles += _TNT_CYCLES
                since += 2
                packets += 1
            if kind is not _FAR:
                width, length, mask = forms[(last_ip ^ dst).bit_length()]
                out += ((dst & mask) << 16 | width << 8 | TIP_HEADER
                        ).to_bytes(length, "little")
                cycles += length * _BYTE_CYCLES
                since += length
                packets += 1
                last_ip = dst
                continue
            width, length, mask = forms[(last_ip ^ src).bit_length()]
            out += ((src & mask) << 16 | width << 8 | FUP_HEADER
                    ).to_bytes(length, "little")
            cycles += length * _BYTE_CYCLES
            out += _PGD_SUPPRESSED
            cycles += _PGD_CYCLES
            since += length + 2
            width, length, mask = forms[(src ^ dst).bit_length()]
            out += ((dst & mask) << 16 | width << 8 | TIP_PGE_HEADER
                    ).to_bytes(length, "little")
            cycles += length * _BYTE_CYCLES
            since += length
            packets += 3
            last_ip = dst
        if out:
            self.output.write(out)
        self._tnt = tnt
        self._last_ip = last_ip
        self._bytes_since_psb = since
        self.cycles = cycles
        self.packets_emitted = packets

    def flush(self) -> None:
        """Flush buffered TNT bits (monitor is about to read the trace)."""
        self._flush_tnt()
