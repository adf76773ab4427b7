"""The packet layer imports nothing above it.

``repro.ipt``'s packet layer — the wire format, the scan, the C kernel's
loader, the packetizer, ToPA and the RTIT MSRs — sits under the
instruction-flow layer (:mod:`repro.ipt.full_decoder`) and the monitor
(:mod:`repro.monitor`), which both read its columns.  This AST scan
fails if any packet-layer module imports either of them, anywhere in the
module (a function body or an ``if TYPE_CHECKING:`` block included).
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

PACKET_LAYER = ("packets", "columnar", "scan_kernel", "encoder", "topa",
                "msr")
ABOVE = ("repro.ipt.full_decoder", "repro.monitor")


def imported_modules(tree):
    """Every module an ``import`` or ``from ... import`` in ``tree``
    names, with ``from package import module`` also as
    ``package.module``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
            for alias in node.names:
                yield f"{node.module}.{alias.name}"


def violations(source: str):
    tree = ast.parse(source)
    return sorted({
        name for name in imported_modules(tree)
        if any(name == above or name.startswith(above + ".")
               for above in ABOVE)
    })


def test_packet_layer_imports_nothing_above_it():
    found = {}
    for name in PACKET_LAYER:
        path = SRC / "ipt" / f"{name}.py"
        bad = violations(path.read_text())
        if bad:
            found[name] = bad
    assert not found, found


def test_scan_catches_every_import_form():
    """The scan's own check: each way of importing an upper layer is
    found, and the packet layer's own imports are not."""
    sources = {
        "from repro.ipt.full_decoder import TraceMismatch": [
            "repro.ipt.full_decoder",
            "repro.ipt.full_decoder.TraceMismatch",
        ],
        "from repro.ipt import full_decoder": ["repro.ipt.full_decoder"],
        "import repro.monitor.fastpath": ["repro.monitor.fastpath"],
        "from repro.monitor import slowpath": [
            "repro.monitor", "repro.monitor.slowpath",
        ],
        "if TYPE_CHECKING:\n    from repro.monitor.policy import X": [
            "repro.monitor.policy", "repro.monitor.policy.X",
        ],
        "def f():\n    import repro.ipt.full_decoder": [
            "repro.ipt.full_decoder",
        ],
        "from repro.ipt.packets import PacketError": [],
        "from repro.ipt import scan_kernel": [],
        "import repro.monitoring": [],
    }
    for source, want in sources.items():
        assert violations(source) == want, source
