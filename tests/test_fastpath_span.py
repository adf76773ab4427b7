"""The fast path's module-span requirement.

``FastPathChecker`` resolves window ips to modules through a per-checker
range table (``module_ranges``), which must answer exactly like
``Image.module_of``, and judges the span once per tail walk.  The
requirement changes what a check costs, never its verdict:
``check_batch`` judges pair *i* with ``sigs[i]`` for *i* >= 1, so a
window that fails the span is judged on the same pairs, only after the
whole buffer was scanned and charged.
"""

import pytest

from repro.binary import Loader
from repro.binary.loader import Image, LoadedModule
from repro.binary.module import Module
from repro.experiments.common import libraries
from repro.ipt.packets import TIP_HEADER, encode_ip_packet
from repro.itccfg import FlowSearchIndex
from repro.monitor.fastpath import FastPathChecker, module_ranges
from repro.workloads import SERVER_BUILDERS, build_vdso
from tests.test_columnar import snapshot_cuts
from tests.test_columnar import pipeline, trace  # noqa: F401 (fixtures)

FLAGS = [(True, True), (True, False), (False, True)]


def server_image(name):
    return Loader(libraries(), vdso=build_vdso()).load(SERVER_BUILDERS[name]())


def overlapping_image():
    """Overlapping mappings, which no loader produces, to pin
    ``module_of``'s precedence: load order first, the vDSO last."""
    exe = Module("app", entry="main")
    lib = Module("lib.so")
    vdso = Module("vdso")
    return Image(
        memory=None,
        modules=[
            LoadedModule(exe, 0x1000, 0x2800, 0x3000),
            LoadedModule(lib, 0x2000, 0x3800, 0x4000),
        ],
        vdso=LoadedModule(vdso, 0x3800, 0x4800, 0x5000),
    )


def probe_points(image):
    """Every module's ``base - 1``, ``base``, ``end - 1`` and ``end``,
    plus points in the gaps between and around the mappings."""
    points = {0, 1 << 63}
    spans = sorted((lm.base, lm.end) for lm in image.all_modules())
    for base, end in spans:
        points.update((base - 1, base, end - 1, end))
    for (_, end), (base, _) in zip(spans, spans[1:]):
        if end < base:
            points.add((end + base) // 2)
    return sorted(points)


def spans_reference(image, ips, cross_module, executable):
    """The requirement as it reads through ``Image.module_of``."""
    found = [image.module_of(ip) for ip in ips if ip is not None]
    found = [lm for lm in found if lm is not None]
    if executable and not any(lm.is_executable for lm in found):
        return False
    if cross_module and len({lm.name for lm in found}) < 2:
        return False
    return True


IMAGES = [pytest.param(name, id=name) for name in SERVER_BUILDERS] + [
    pytest.param(None, id="overlapping")
]


def image_for(name):
    return overlapping_image() if name is None else server_image(name)


class TestModuleRanges:
    @pytest.mark.parametrize("name", IMAGES)
    def test_table_answers_like_module_of(self, name):
        image = image_for(name)
        ranges = module_ranges(image)
        assert ranges == sorted(ranges)
        for (_, end, _, _), (base, _, _, _) in zip(ranges, ranges[1:]):
            assert end <= base
        for ip in probe_points(image):
            hits = [r for r in ranges if r[0] <= ip < r[1]]
            lm = image.module_of(ip)
            if lm is None:
                assert hits == []
            else:
                assert hits == [
                    (hits[0][0], hits[0][1], lm.name, lm.is_executable)
                ]

    @pytest.mark.parametrize("name", IMAGES)
    @pytest.mark.parametrize("flags", FLAGS)
    def test_span_check_matches_module_of(self, name, flags):
        image = image_for(name)
        checker = FastPathChecker(
            None, image, require_cross_module=flags[0],
            require_executable=flags[1],
        )
        points = probe_points(image) + [None]
        windows = [[ip] for ip in points] + [
            [a, None, b] for a in points for b in points
        ]
        for ips in windows:
            assert checker._spans_modules(ips) == spans_reference(
                image, ips, *flags
            ), [None if ip is None else hex(ip) for ip in ips]


def span_checkers(pipeline, image, pkt_count=30):
    """A default-policy (span on) and a span-off checker, each on its
    own fresh index."""
    on = FastPathChecker(
        FlowSearchIndex(pipeline.labeled), image, pkt_count=pkt_count
    )
    off = FastPathChecker(
        FlowSearchIndex(pipeline.labeled), image, pkt_count=pkt_count,
        require_cross_module=False, require_executable=False,
    )
    return on, off


class TestSpanRequirement:
    def test_suppressed_tip_in_the_newest_window(self, pipeline, trace):
        data, image = trace
        data += encode_ip_packet(TIP_HEADER, None, 0)[0]
        on, off = span_checkers(pipeline, image)
        got = on.check(data)
        want = off.check(data)
        assert got.window_ips[-1] is None
        assert got.verdict is want.verdict
        assert got.window_ips == want.window_ips

    @pytest.mark.parametrize("pkt_count", [2, 12, 30])
    def test_span_changes_cost_never_verdict(self, pipeline, trace, pkt_count):
        data, image = trace
        unmet = 0
        for cut in snapshot_cuts(data):
            on, off = span_checkers(pipeline, image, pkt_count)
            got = on.check(data[:cut])
            want = off.check(data[:cut])
            assert got.window_ips == want.window_ips
            assert got.checked_pairs == want.checked_pairs
            assert got.verdict is want.verdict
            assert got.decode_cycles >= want.decode_cycles
            if not on._spans_modules(got.window_ips):
                unmet += 1
        if pkt_count == 2:
            assert unmet, "no cut left the span requirement unmet"
