"""The tail walk's previous-walk segments, on real traffic.

A checker keeps the segments its last tail walk scanned, keyed by their
bytes, and the next walk takes a segment from there instead of scanning
it again.  This must change nothing a check reports.  The suite
captures every fast-path snapshot of the four trained servers (a
planted nginx ROP included), mangles some of them as a faulty drain
would (each followed by its clean re-read), and replays the sequence
through one checker and through a fresh checker per snapshot: every
result field, ledger event and telemetry counter must be equal, while
the one checker scans fewer segments.
"""

import pytest

from repro import telemetry
from repro.experiments.common import run_server, server_pipeline
from repro.loadgen import mix_requests, rop_request
from repro.monitor.fastpath import FastPathChecker, Verdict
from repro.osmodel import Kernel
from repro.resilience import DegradationLedger, FaultPlan
from repro.resilience.faults import FaultInjector, FaultSite

SERVERS = ("nginx", "exim", "vsftpd", "openssh")
SESSIONS = 8


@pytest.fixture(scope="module")
def captures():
    """Server name -> the snapshots its protected run checked."""
    out = {}
    for conn, server in enumerate(SERVERS):
        requests = mix_requests(server, SESSIONS, seed=conn + 1,
                                mix="varied")
        if server == "nginx":
            requests.append(rop_request())
        seen = []
        original = FastPathChecker.check

        def capture(checker, data, _original=original, _seen=seen):
            _seen.append(bytes(data))
            return _original(checker, data)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(FastPathChecker, "check", capture)
            run_server(server, requests, protected=True)
        out[server] = seen
    return out


def drain_sequence(snapshots, seed):
    """``snapshots`` as a faulty drain delivers them: a mangled copy
    (truncated or corrupt) followed by its clean re-read."""
    injector = FaultInjector(FaultPlan(
        seed=seed,
        corrupt_drain=FaultSite(probability=0.15),
        truncate_drain=FaultSite(probability=0.1),
    ))
    out = []
    for data in snapshots:
        mangled, events = injector.mangle(data)
        if events:
            out.append(mangled)
        out.append(data)
    return out


def fresh_like(checker):
    """A new checker configured as ``checker``, with its own ledger."""
    return FastPathChecker(
        checker.index, checker.image,
        pkt_count=checker.pkt_count,
        cred_ratio=checker.cred_ratio,
        require_cross_module=checker.require_cross_module,
        require_executable=checker.require_executable,
        path_index=checker.path_index,
        ledger=DegradationLedger(),
        owner_pid=checker.owner_pid,
    )


def result_fields(result):
    """Every field a check reports, the slow path's input included."""
    return (
        result.verdict,
        result.checked_pairs,
        tuple(result.low_credit_pairs),
        result.violation_edge,
        result.decode_cycles,
        result.search_cycles,
        tuple(result.window_ips),
        tuple(result.window_sigs),
        result.first_record_offset,
        result.window_offset,
        result.corrupt_segments,
        result.tail.count,
        result.tail.cycles,
        result.tail.start,
        tuple(
            (base, bytes(seg.data))
            for seg, base in result.slow_path_source()
        ),
    )


def events(ledger, since=0):
    return [(e.kind, e.pid, e.detail) for e in ledger.events[since:]]


@pytest.fixture
def scans(monkeypatch):
    """The bytes of every segment a tail walk hands the scan."""
    import repro.monitor.fastpath as fastpath

    seen = []
    real = fastpath.columnar_scan

    def counting(segment, *args, **kwargs):
        seen.append(bytes(segment))
        return real(segment, *args, **kwargs)

    monkeypatch.setattr(fastpath, "columnar_scan", counting)
    return seen


@pytest.mark.parametrize("server", SERVERS)
def test_reuse_matches_a_fresh_checker(captures, server, scans):
    monitor, proc = server_pipeline(server).deploy(Kernel())
    checker = fresh_like(monitor.protected_for(proc).checker)
    sequence = drain_sequence(captures[server], seed=len(server))
    verdicts = []
    reused_scans = fresh_scans = 0
    tel = telemetry.get_telemetry()
    enabled = tel.enabled
    tel.reset()
    tel.enable()
    try:
        for data in sequence:
            since = len(checker.ledger.events)
            tel.metrics.reset()
            del scans[:]
            reused = checker.check(data)
            counters = tel.metrics.snapshot()
            reused_scans += len(scans)
            fresh = fresh_like(checker)
            tel.metrics.reset()
            del scans[:]
            expect = fresh.check(data)
            fresh_scans += len(scans)
            assert result_fields(reused) == result_fields(expect)
            assert events(checker.ledger, since) == events(fresh.ledger)
            assert counters == tel.metrics.snapshot()
            verdicts.append(reused.verdict)
    finally:
        if not enabled:
            tel.disable()
        tel.reset()
    assert len(sequence) > len(captures[server]), "no drain was mangled"
    assert checker.ledger.count("corrupt-segment")
    assert verdicts.count(Verdict.VIOLATION) == (server == "nginx")
    assert reused_scans < fresh_scans


def test_rebind_keeps_no_segment(captures, scans):
    """A hot reload swaps in a fresh checker: its first walk keeps
    nothing from the old checker's, so it scans every segment it walks,
    where the old checker would scan none."""
    pipeline = server_pipeline("exim")
    monitor, proc = pipeline.deploy(Kernel())
    pp = monitor.protected_for(proc)
    data = captures["exim"][-1]
    old = pp.checker
    old.check(data)
    del scans[:]
    old.check(data)
    assert scans == []
    monitor.rebind(pp, pipeline.labeled, pipeline.ocfg,
                   path_index=pipeline.path_index)
    assert pp.checker is not old
    result = pp.checker.check(data)
    assert scans == [bytes(e.seg.data) for e in result.tail.entries]
