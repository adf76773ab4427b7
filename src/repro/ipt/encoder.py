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
#: ``(last_ip ^ target).bit_length()`` -> (payload width, packet
#: length, payload mask) of the IP packet that encodes ``target``.
_IP_FORMS = tuple(
    (width, width + 2, (1 << (8 * width)) - 1) for width in IP_WIDTH_FOR_BITS
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

    def flush(self) -> None:
        """Flush buffered TNT bits (monitor is about to read the trace)."""
        self._flush_tnt()
