"""ITC-CFG serialization and memory accounting (Table 5 support).

The trained CFG is produced offline and shipped alongside the protected
binary; the kernel module loads it at protection time.  The dict format
is JSON-compatible.
"""

from __future__ import annotations

from typing import Dict

from repro.itccfg.construct import ITCCFG, ITCEdge
from repro.itccfg.credits import CreditLabeledITC, CreditLevel, EdgeLabel


def itccfg_to_dict(labeled: CreditLabeledITC) -> Dict:
    """Serialise a credit-labelled ITC-CFG to a JSON-compatible dict."""
    return {
        "nodes": sorted(labeled.itc.nodes),
        "edges": [
            {"src": e.src, "dst": e.dst, "branch": e.branch_addr}
            for e in labeled.itc.edges
        ],
        "labels": [
            {
                "src": src,
                "dst": dst,
                "credit": int(label.credit),
                # A signature's bits after its leading 1, oldest
                # first; sorted strings order as the runs' bool tuples.
                "tnt": sorted(bin(sig)[3:] for sig in label.tnt_patterns),
            }
            for (src, dst), label in sorted(labeled.labels.items())
        ],
        "trained_entry_nodes": sorted(labeled.trained_entry_nodes),
    }


def itccfg_from_dict(data: Dict) -> CreditLabeledITC:
    """Inverse of :func:`itccfg_to_dict`."""
    itc = ITCCFG()
    itc.nodes = set(data["nodes"])
    for entry in data["edges"]:
        itc.add_edge(ITCEdge(entry["src"], entry["dst"], entry["branch"]))
    labeled = CreditLabeledITC(itc=itc)
    for entry in data.get("labels", []):
        label = EdgeLabel(credit=CreditLevel(entry["credit"]))
        for pattern in entry.get("tnt", []):
            label.tnt_patterns.add(int("1" + pattern, 2))
        labeled.labels[(entry["src"], entry["dst"])] = label
    labeled.trained_entry_nodes = set(data.get("trained_entry_nodes", []))
    # The labels were written directly, not through a mutator.
    labeled.generation += 1
    return labeled


def itccfg_memory_bytes(labeled: CreditLabeledITC) -> int:
    """In-kernel resident size estimate of the maintained ITC-CFG."""
    size = 8 * len(labeled.itc.nodes)
    size += 24 * len(labeled.itc.edges)  # src, dst, branch
    for label in labeled.labels.values():
        size += 17  # key + credit byte
        # A packed signature carries ``sig.bit_length() - 1`` branches.
        size += sum(
            8 + (sig.bit_length() - 1 + 7) // 8 for sig in label.tnt_patterns
        )
    return size
