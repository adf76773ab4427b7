"""The list-buffered IPT packetizer and per-byte ToPA: the trace oracle.

:class:`repro.ipt.encoder.IPTEncoder` packs pending TNT bits into one
int, builds each IP packet with one ``int.to_bytes`` and subscribes to
packet-producing CoFI kinds only; :meth:`repro.ipt.topa.ToPA.write`
copies one slice per region.  This is the encoder and the ToPA write
they replaced — TNT bits in a ``List[bool]``, a per-width IP-compression
loop, one byte per iteration into the ToPA — kept as the oracle
``tests/test_encoder_differential.py`` holds them to: byte-identical
ToPA contents, ``total_bytes_written``, ``packets_emitted`` and exactly
equal ``cycles``.
"""

from typing import Callable, List, Optional, Tuple

from repro import costs
from repro.cpu.events import BranchEvent, CoFIKind
from repro.ipt.msr import RTIT_CTL, IPTConfig
from repro.ipt.packets import (
    FUP_HEADER,
    IP_WIDTHS,
    MAX_TNT_BITS,
    PSBEND_BYTE,
    PSB_PATTERN,
    PacketError,
    TIP_HEADER,
    TIP_PGD_HEADER,
    TIP_PGE_HEADER,
    TNT_HEADER,
)
from repro.ipt.topa import ToPA


class ReferenceToPA(ToPA):
    """A ToPA whose ``write`` moves one byte per iteration."""

    def write(self, data: bytes) -> None:
        if self._stopped:
            return
        for byte in data:
            region = self.regions[self._region]
            self._buffers[self._region][self._offset] = byte
            self._offset += 1
            self.total_bytes_written += 1
            if self._offset >= region.size:
                if region.interrupt and self.pmi_callback is not None:
                    self.pmi_callback()
                if region.stop:
                    self._stopped = True
                    return
                self._offset = 0
                self._region += 1
                if self._region >= len(self.regions):
                    self._region = 0
                    self._wrapped = True


def encode_tnt(bits: Tuple[bool, ...]) -> bytes:
    payload = 1
    for bit in bits:
        payload = (payload << 1) | (1 if bit else 0)
    return bytes([TNT_HEADER, payload])


def encode_ip_packet(header: int, target: Optional[int],
                     last_ip: int) -> Tuple[bytes, int]:
    """A TIP/FUP-family packet by trying each IPBytes width in turn."""
    if target is None:
        return bytes([header, 0]), last_ip
    for width in IP_WIDTHS[1:]:
        mask = (1 << (8 * width)) - 1
        if (last_ip & ~mask) == (target & ~mask):
            payload = (target & mask).to_bytes(width, "little")
            return bytes([header, width]) + payload, target
    raise PacketError(f"cannot encode IP {target:#x}")


class ReferenceEncoder:
    """Same surface as :class:`repro.ipt.encoder.IPTEncoder`."""

    def __init__(
        self,
        config: IPTConfig,
        output: ToPA,
        current_cr3: Optional[Callable[[], Optional[int]]] = None,
    ) -> None:
        self.config = config
        self.output = output
        self.current_cr3 = current_cr3 or (lambda: None)
        self._tnt_buffer: List[bool] = []
        self._last_ip = 0
        self._bytes_since_psb = 0
        self._started = False
        self.cycles = 0.0
        self.packets_emitted = 0

    def _write(self, data: bytes) -> None:
        self.output.write(data)
        self.cycles += len(data) * costs.IPT_TRACE_CYCLES_PER_BYTE
        self._bytes_since_psb += len(data)
        self.packets_emitted += 1

    def _emit_psb_group(self, current_ip: int) -> None:
        self._flush_tnt()
        self.output.write(PSB_PATTERN)
        self.cycles += len(PSB_PATTERN) * costs.IPT_TRACE_CYCLES_PER_BYTE
        self._last_ip = 0
        data, self._last_ip = encode_ip_packet(
            FUP_HEADER, current_ip, self._last_ip
        )
        self.output.write(data)
        self.output.write(bytes([PSBEND_BYTE]))
        self.cycles += (len(data) + 1) * costs.IPT_TRACE_CYCLES_PER_BYTE
        self._bytes_since_psb = 0
        self.packets_emitted += 3

    def _maybe_psb(self, current_ip: int) -> None:
        if not self._started or self._bytes_since_psb >= self.config.psb_period:
            self._emit_psb_group(current_ip)
            self._started = True

    def _flush_tnt(self) -> None:
        while self._tnt_buffer:
            chunk = tuple(self._tnt_buffer[:MAX_TNT_BITS])
            del self._tnt_buffer[:MAX_TNT_BITS]
            self._write(encode_tnt(chunk))

    def _emit_ip(self, header: int, target: Optional[int]) -> None:
        data, self._last_ip = encode_ip_packet(header, target, self._last_ip)
        self._write(data)

    def on_branch(self, event: BranchEvent) -> None:
        config = self.config
        if not (config.ctl & RTIT_CTL.TRACE_EN
                and config.ctl & RTIT_CTL.BRANCH_EN):
            return
        if (config.ctl & RTIT_CTL.CR3_FILTER
                and self.current_cr3() != config.cr3_match):
            return
        kind = event.kind
        if kind in (CoFIKind.DIRECT_JMP, CoFIKind.DIRECT_CALL):
            return
        self._maybe_psb(event.src)
        if kind is CoFIKind.COND_BRANCH:
            self._tnt_buffer.append(event.taken)
            if len(self._tnt_buffer) >= MAX_TNT_BITS:
                self._flush_tnt()
            return
        self._flush_tnt()
        if kind in (
            CoFIKind.INDIRECT_JMP,
            CoFIKind.INDIRECT_CALL,
            CoFIKind.RET,
        ):
            self._emit_ip(TIP_HEADER, event.dst)
            return
        if kind is CoFIKind.FAR_TRANSFER:
            self._emit_ip(FUP_HEADER, event.src)
            self._emit_ip(TIP_PGD_HEADER, None)
            self._emit_ip(TIP_PGE_HEADER, event.dst)

    def flush(self) -> None:
        self._flush_tnt()
