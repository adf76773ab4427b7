"""Hot O-CFG/ITC-CFG reload: versioned pipelines, drain-then-retire.

A "binary version" in the simulator is one
:class:`~repro.pipeline.FlowGuardPipeline` build: the trained O-CFG,
ITC-CFG, credit labels and path index for a program.  A reload builds
a *fresh* pipeline (bypassing the shared ``server_pipeline`` cache —
a genuinely new version object, retrained from the same corpus) and
atomically swaps every affected
:class:`~repro.monitor.flowguard.ProtectedProcess` onto it between
scheduler rounds via :meth:`FlowGuardMonitor.rebind`.

Verdicts are computed eagerly at ``dispatcher.submit()`` and only
*applied* at task completion, so the swap can never change or drop a
check in flight — the registry records how many checks were in flight
at swap time and marks the old version retired only once every one of
them has completed (the "old index retired after drain" contract).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro import configio


@dataclass
class PipelineVersion:
    """One live (or retired) pipeline version for a program."""

    version: int
    program: str
    #: tenant clock when this version was activated.
    activated_at: float
    #: pids swapped onto this version.
    pids: List[int] = field(default_factory=list)
    #: checks in flight (submitted, not yet due) at activation — the
    #: predecessor version must outlive all of them.
    inflight_at_swap: int = 0
    #: tenant clock when the *predecessor* finished draining and this
    #: version's predecessor was retired (None while still draining).
    retired_at: Optional[float] = None

    def to_dict(self) -> dict:
        return configio.to_dict(self)


def fresh_pipeline(program: str):
    """A newly built pipeline version (cache bypassed on purpose)."""
    from repro.experiments.common import server_pipeline

    return server_pipeline.__wrapped__(program)


class ReloadRegistry:
    """Per-tenant version bookkeeping for hot reloads."""

    def __init__(self) -> None:
        #: program -> current version number (v1 is the initial build).
        self._current: Dict[str, int] = {}
        self.versions: List[PipelineVersion] = []
        #: versions whose predecessor still has checks draining:
        #: version -> task ids in flight at swap time.
        self._draining: Dict[int, List[int]] = {}
        self._seq = 0

    def activate(
        self,
        program: str,
        now: float,
        pids: List[int],
        inflight_task_ids: List[int],
    ) -> PipelineVersion:
        """Record a swap to a freshly built version of ``program``."""
        self._seq += 1
        self._current[program] = self._current.get(program, 1) + 1
        version = PipelineVersion(
            version=self._current[program],
            program=program,
            activated_at=now,
            pids=list(pids),
            inflight_at_swap=len(inflight_task_ids),
        )
        self.versions.append(version)
        self._draining[self._seq] = list(inflight_task_ids)
        version._key = self._seq  # type: ignore[attr-defined]
        return version

    def retire_drained(self, dispatcher, now: float) -> int:
        """Retire predecessors whose in-flight checks have all landed.

        Returns how many versions finished draining this call.  A
        version drains when every check that was in flight at its swap
        has a completion time at or before ``now`` — exactly the "old
        index retired after drain" semantics, checked against the
        dispatcher's task table rather than trusted.
        """
        by_id = {task.task_id: task for task in dispatcher.tasks}
        retired = 0
        for version in self.versions:
            if version.retired_at is not None:
                continue
            pending = self._draining.get(
                getattr(version, "_key", -1), []
            )
            if all(
                task_id in by_id
                and by_id[task_id].finished_at <= now
                for task_id in pending
            ):
                version.retired_at = now
                retired += 1
        return retired

    @property
    def undrained(self) -> int:
        """Versions whose predecessor is still draining."""
        return sum(1 for v in self.versions if v.retired_at is None)

    def to_dict(self) -> dict:
        return {
            "reloads": len(self.versions),
            "undrained": self.undrained,
            "versions": [v.to_dict() for v in self.versions],
        }
