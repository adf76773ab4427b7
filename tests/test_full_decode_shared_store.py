"""The slow path reads the CPU's decoded code.

After a server run, the module's :class:`~repro.cpu.blocks.BlockStore`
holds a predecoded entry for every instruction the process ran.  A fresh
:class:`~repro.ipt.full_decoder.FullDecoder` over the process's memory
decodes every slow-path window from those entries, without decoding a
single instruction itself, and its direct JMP, CALL and JCC edges are
the very event objects the executor's entries hold.  Every outcome is
also held to the per-instruction oracle
(``tests/full_decoder_reference.py``).
"""

import pytest

from repro.cpu.events import CoFIKind
from repro.cpu.memory import PAGE_SHIFT
from repro.ipt import FullDecoder
from tests.full_decoder_reference import ReferenceFullDecoder
from tests.test_full_decode_differential import fields, result_of

#: Edge kinds whose events are prebuilt in the predecoded entries.
STATIC = (CoFIKind.DIRECT_JMP, CoFIKind.DIRECT_CALL, CoFIKind.COND_BRANCH)


@pytest.fixture(scope="module")
def server_run():
    """An undertrained nginx (Fig. 5d's protocol: no negative caching)
    served to exit: its process, and every window its slow path
    decoded, with the oracle's outcome for each."""
    from repro.experiments.common import (
        libraries,
        seed_server_fs,
        training_corpus,
    )
    from repro.loadgen import mix_requests
    from repro.monitor.policy import FlowGuardPolicy
    from repro.osmodel import Kernel, ProcessState
    from repro.pipeline import FlowGuardPipeline
    from repro.workloads import SERVER_BUILDERS, build_vdso

    pipeline = FlowGuardPipeline.offline(
        "nginx", SERVER_BUILDERS["nginx"](), libraries(),
        vdso=build_vdso(), corpus=training_corpus("nginx")[:2],
        mode="socket", kernel_setup=seed_server_fs,
    )
    windows = []
    production = FullDecoder.decode

    def recording(self, source, start_ip=None):
        windows.append((self.memory, source, start_ip))
        return production(self, source, start_ip)

    mp = pytest.MonkeyPatch()
    mp.setattr(FullDecoder, "decode", recording)
    try:
        kernel = Kernel()
        seed_server_fs(kernel)
        monitor, proc = pipeline.deploy(
            kernel, policy=FlowGuardPolicy(cache_slow_path_negatives=False)
        )
        for request in mix_requests("nginx", 20, seed=1, mix="varied"):
            proc.push_connection(request)
        kernel.run(proc)
    finally:
        mp.undo()
    assert proc.state is ProcessState.EXITED
    assert monitor.detections == []
    assert len(windows) >= 10
    (memory,) = {id(w[0]): w[0] for w in windows}.values()
    oracle = [
        result_of(ReferenceFullDecoder(memory), source, start_ip)
        for _, source, start_ip in windows
    ]
    return proc, memory, [w[1:] for w in windows], oracle


def test_slow_path_windows_decode_nothing_themselves(server_run,
                                                     monkeypatch):
    """A fresh decoder walks every window from the store's entries:
    no ``decode_at`` call anywhere, and the oracle's outcome."""
    import repro.cpu.blocks
    import repro.ipt.full_decoder

    _, memory, windows, oracle = server_run
    calls = []
    for module in (repro.ipt.full_decoder, repro.cpu.blocks):
        def counting(data, offset, _decode=module.decode_at):
            calls.append(offset)
            return _decode(data, offset)

        monkeypatch.setattr(module, "decode_at", counting)
    decoder = FullDecoder(memory)
    for (source, start_ip), want in zip(windows, oracle):
        assert result_of(decoder, source, start_ip) == want
    assert calls == []


def test_static_edges_are_the_executors_events(server_run):
    """Each direct JMP, CALL and JCC edge is the event object its
    instruction's store entry holds, the one the executor ran."""
    proc, memory, windows, oracle = server_run
    icache = proc.executor._icache
    decoder = FullDecoder(memory)
    static = in_icache = 0
    for (source, start_ip), want in zip(windows, oracle):
        result = decoder.decode(source, start_ip)
        assert fields(result) == want
        for edge in result.edges:
            if edge.kind not in STATIC:
                continue
            static += 1
            page = memory.block_store(edge.src).attest(
                memory, edge.src >> PAGE_SHIFT
            )
            entry = page.entries[edge.src]
            events = entry[4] if edge.kind is CoFIKind.COND_BRANCH \
                else (entry[4],)
            assert any(edge is event for event in events), edge
            if edge.src in icache:
                in_icache += 1
                assert icache[edge.src] is entry
    assert static > 100 and in_icache > 0
