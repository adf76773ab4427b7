"""Zero-copy slicing on the fast path.

The fast path keeps no decode cache beyond its previous tail walk's
segments (the labelled ITC-CFG is its only cache of edges), so what it
must not waste is copies: the tail walk and the parallel scan's serial
path hand ``columnar_scan`` slices of the caller's ``bytes``, never
fresh bytes.  Both are checked by spying on the scan's input.
"""

import pytest

from repro.ipt import columnar
from repro.ipt.columnar import columnar_decode_parallel, columnar_scan
from repro.itccfg import FlowSearchIndex
from repro.monitor.fastpath import FastPathChecker
from repro.osmodel import Kernel
from repro.pipeline import FlowGuardPipeline
from repro.workloads import (
    build_libsim,
    build_nginx,
    build_vdso,
    nginx_request,
)

LIBS = {"libsim.so": build_libsim()}


@pytest.fixture(scope="module")
def pipeline():
    return FlowGuardPipeline.offline(
        "nginx",
        build_nginx(),
        LIBS,
        vdso=build_vdso(),
        corpus=[nginx_request("/index.html")],
        mode="socket",
    )


@pytest.fixture(scope="module")
def trace(pipeline):
    kernel = Kernel()
    kernel.fs.create("/index.html", b"<html>x</html>")
    monitor, proc = pipeline.deploy(kernel)
    for _ in range(4):
        proc.push_connection(nginx_request("/index.html"))
    kernel.run(proc)
    pp = monitor.protected_for(proc)
    pp.encoder.flush()
    return bytes(pp.topa.snapshot()), proc.image


class TestZeroCopy:
    def test_parallel_serial_path_slices_zero_copy(self, trace, monkeypatch):
        data, _ = trace
        seen = []
        real = columnar.columnar_scan

        def spy(segment, *args, **kwargs):
            seen.append(segment)
            return real(segment, *args, **kwargs)

        monkeypatch.setattr(columnar, "columnar_scan", spy)
        columnar_decode_parallel(data)
        assert seen
        for segment in seen:
            assert isinstance(segment, memoryview)
            assert segment.obj is data  # a slice, not a copy

    def test_checker_decode_tail_scans_its_keys(
        self, pipeline, trace, monkeypatch
    ):
        """The walk scans the bytes it keys its kept segments by: one
        copy per scanned segment."""
        data, image = trace
        seen = []
        real = columnar_scan

        def spy(segment, *args, **kwargs):
            seen.append(segment)
            return real(segment, *args, **kwargs)

        import repro.monitor.fastpath as fastpath

        monkeypatch.setattr(fastpath, "columnar_scan", spy)
        checker = FastPathChecker(
            FlowSearchIndex(pipeline.labeled), image, pkt_count=12,
            require_cross_module=False, require_executable=False,
        )
        checker.decode_tail_columnar(data)
        assert seen
        keys = list(checker._last_walk)
        for segment in seen:
            assert type(segment) is bytes
            assert any(segment is key for key in keys)
