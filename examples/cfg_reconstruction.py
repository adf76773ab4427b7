#!/usr/bin/env python3
"""Figure 3 walkthrough: O-CFG -> ITC-CFG -> credit labelling.

Reconstructs the paper's 10-basic-block example, showing which blocks
survive as IT-BBs, how edges are re-associated across direct paths
(BB-3 -> BB-9 via the indirect hop at BB-6; no BB-3 -> BB-10 edge), and
how training labels edges with credits and TNT information.  Then runs
the same machinery on the real nginx analogue.

Run:  python examples/cfg_reconstruction.py
"""

from repro.analysis import ControlFlowGraph, Edge, EdgeKind, aia_itc, aia_ocfg
from repro.analysis.cfg import BasicBlock
from repro.ipt.packets import pack_tnt_sig
from repro.itccfg import CreditLabeledITC, CreditLevel, build_itccfg


def figure3() -> None:
    bb = {i: 0x1000 * i for i in range(1, 11)}
    names = {addr: f"BB-{i}" for i, addr in bb.items()}
    cfg = ControlFlowGraph()
    for i, start in bb.items():
        cfg.add_block(BasicBlock(start, start + 0x10, "app", f"bb{i}"))

    def direct(s, d):
        cfg.add_edge(Edge(bb[s], bb[d], EdgeKind.DIRECT_JMP, bb[s] + 8))

    def indirect(s, d):
        cfg.add_edge(Edge(bb[s], bb[d], EdgeKind.INDIRECT_JMP, bb[s] + 8))

    indirect(1, 2); indirect(1, 3)          # noqa: E702
    direct(2, 4); indirect(4, 7)            # noqa: E702
    indirect(2, 5)
    direct(3, 6); indirect(6, 9)            # noqa: E702
    direct(6, 10); indirect(5, 10)          # noqa: E702

    print("Figure 3 (a): the original O-CFG")
    for edge in cfg.edges:
        arrow = "~~>" if edge.is_indirect else "-->"
        print(f"  {names[edge.src]} {arrow} {names[edge.dst]}")

    itc = build_itccfg(cfg)
    print("\nFigure 3 (b): the ITC-CFG")
    print(f"  IT-BBs: {sorted(names[n] for n in itc.nodes)}")
    for node in sorted(itc.nodes):
        for succ in sorted(itc.successors(node)):
            print(f"  {names[node]} ==> {names[succ]}")
    print(f"  note: BB-3 ==> BB-9 exists (indirect hop at BB-6); "
          f"BB-3 ==> BB-10 does not (direct-only path): "
          f"{itc.has_edge(bb[3], bb[9])} / {itc.has_edge(bb[3], bb[10])}")

    print("\nFigure 3 (c): training labels")
    labeled = CreditLabeledITC(itc=itc)
    # Simulate a training trace visiting everything except BB-2 -> BB-7
    # (each TIP with its packed TNT run; 1 is the empty run).
    labeled.observe_trace([(bb[2], 1), (bb[5], pack_tnt_sig((True,))),
                           (bb[10], 1)])
    labeled.observe_trace([(bb[3], 1), (bb[9], pack_tnt_sig((False,)))])
    for edge in itc.edges:
        credit = labeled.credit_of(edge.src, edge.dst)
        tag = "HIGH" if credit is CreditLevel.HIGH else "low "
        print(f"  [{tag}] {names[edge.src]} ==> {names[edge.dst]}")

    print(f"\nAIA over this toy graph: O-CFG {aia_ocfg(cfg):.2f}, "
          f"ITC node mean out-degree {aia_itc(itc):.2f} "
          f"(Figure 4 is the derogation case; see "
          f"tests/test_itccfg.py::TestFigure4AIADerogation)")


def real_nginx() -> None:
    from repro.analysis import build_ocfg
    from repro.binary import Loader
    from repro.workloads import build_libsim, build_nginx, build_vdso

    image = Loader({"libsim.so": build_libsim()},
                   vdso=build_vdso()).load(build_nginx())
    ocfg = build_ocfg(image)
    itc = build_itccfg(ocfg)
    stats = ocfg.stats()
    print("\nthe same pipeline on the real nginx analogue:")
    print(f"  O-CFG: {stats['blocks']} blocks "
          f"({stats['exec_blocks']} exec / {stats['lib_blocks']} lib), "
          f"{stats['edges']} edges")
    print(f"  ITC-CFG: {len(itc.nodes)} IT-BBs, {itc.edge_count} edges")
    print(f"  AIA: O-CFG {aia_ocfg(ocfg):.2f} -> ITC {aia_itc(itc):.2f}")


if __name__ == "__main__":
    figure3()
    real_nginx()
