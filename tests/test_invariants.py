"""Property-based invariants on core data structures (hypothesis)."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.ipt.packets import pack_tnt_sig
from repro.ipt.topa import ToPA, ToPARegion
from repro.itccfg import (
    CreditLabeledITC,
    FlowSearchIndex,
    ITCCFG,
    ITCEdge,
    PathIndex,
)
from tests.searchindex_reference import check_pair


class TestToPAReferenceModel:
    """The ToPA must behave like a simple bounded tail buffer."""

    @given(
        chunks=st.lists(st.binary(min_size=1, max_size=40), max_size=25),
        sizes=st.lists(st.integers(8, 64), min_size=1, max_size=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_snapshot_matches_reference(self, chunks, sizes):
        topa = ToPA([ToPARegion(size) for size in sizes])
        reference = bytearray()
        for chunk in chunks:
            topa.write(chunk)
            reference += chunk
        snap = topa.snapshot()
        capacity = topa.capacity
        if not topa.wrapped:
            assert snap == bytes(reference)
        else:
            # A wrapped snapshot holds exactly the most recent
            # `capacity` bytes in order: it must equal the true tail.
            assert len(snap) == capacity
            assert snap == bytes(reference[-capacity:])

    @given(st.lists(st.binary(min_size=1, max_size=30), max_size=15))
    @settings(max_examples=40, deadline=None)
    def test_total_counter_monotone(self, chunks):
        topa = ToPA([ToPARegion(16), ToPARegion(16)])
        total = 0
        for chunk in chunks:
            topa.write(chunk)
            total += len(chunk)
            assert topa.total_bytes_written == total


# -- random ITC graphs + labels --------------------------------------------

_node = st.integers(0x1000, 0x1040).map(lambda v: v * 16)


@st.composite
def labeled_graphs(draw):
    edges = draw(
        st.lists(
            st.tuples(_node, _node, _node), min_size=1, max_size=30
        )
    )
    itc = ITCCFG()
    for src, dst, branch in edges:
        itc.nodes.add(src)
        itc.nodes.add(dst)
        itc.add_edge(ITCEdge(src, dst, branch))
    labeled = CreditLabeledITC(itc=itc)
    trained = draw(
        st.lists(st.sampled_from(edges), max_size=len(edges))
    )
    for src, dst, _ in trained:
        tnt = draw(st.lists(st.booleans(), max_size=4))
        labeled.observe_pair(src, dst, pack_tnt_sig(tnt))
    return labeled


class TestSerializationEquivalence:
    @given(labeled_graphs())
    @settings(max_examples=30, deadline=None)
    def test_search_index_agrees_with_graph(self, labeled):
        """The §5.3 sorted-array structure must answer membership
        identically to the graph it was built from."""
        index = FlowSearchIndex(labeled)
        for edge in labeled.itc.edges:
            assert check_pair(index, edge.src, edge.dst).violation is None
        # Nodes with no edge between them must be rejected.
        nodes = sorted(labeled.itc.nodes)
        for src in nodes[:5]:
            for dst in nodes[:5]:
                expected = labeled.itc.has_edge(src, dst)
                in_graph = check_pair(index, src, dst).violation is None
                assert in_graph == expected


class TestPathIndexInvariants:
    @given(st.lists(_node, min_size=4, max_size=20))
    @settings(max_examples=40, deadline=None)
    def test_trained_sequence_always_contained(self, nodes):
        index = PathIndex(gram=3)
        index.observe_sequence(nodes)
        assert index.untrained_grams(nodes) == []
        assert index.contains(nodes)

    @given(
        st.lists(_node, min_size=4, max_size=15),
        st.integers(1, 12),
    )
    @settings(max_examples=40, deadline=None)
    def test_windows_of_trained_sequence_contained(self, nodes, start):
        index = PathIndex(gram=3)
        index.observe_sequence(nodes)
        start = start % len(nodes)
        window = nodes[start : start + 6]
        if len(window) >= 2:
            assert index.contains(window)


class TestMonitorReport:
    def test_report_is_json_serializable(self):
        from repro.osmodel import Kernel
        from repro.pipeline import FlowGuardPipeline
        from repro.workloads import (
            build_libsim, build_nginx, build_vdso, nginx_request,
        )

        pipeline = FlowGuardPipeline.offline(
            "nginx", build_nginx(), {"libsim.so": build_libsim()},
            vdso=build_vdso(), corpus=[nginx_request("/a")],
            mode="socket",
        )
        kernel = Kernel()
        kernel.fs.create("/a", b"x")
        monitor, proc = pipeline.deploy(kernel)
        proc.push_connection(nginx_request("/a"))
        kernel.run(proc)
        report = json.loads(json.dumps(monitor.report()))
        assert report["policy"]["pkt_count"] == 30
        assert report["processes"][0]["checks"] > 0
        assert report["detections"] == []
