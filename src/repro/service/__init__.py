"""Multi-tenant serving front-end over the fleet simulator.

``repro.service`` turns the single-run fleet harness into a serving
system: named tenants, each an isolated fault domain with its own
admission quota, driven round-robin in config order, with per-tenant
verdict streams, hot O-CFG/ITC-CFG reload, and graceful drain.
See :mod:`repro.service.service` for the front-end itself.
"""

from repro.service.config import (
    BUILTIN_SERVE_CONFIGS,
    SERVE_SCHEMA_VERSION,
    ServeConfig,
    TenantSpec,
    builtin_serve_config,
    resolve_serve_config,
)
from repro.service.quota import TokenBucket
from repro.service.reload import (
    PipelineVersion,
    ReloadRegistry,
    fresh_pipeline,
)
from repro.service.service import (
    ServiceResult,
    TraceCheckService,
    run_service,
)
from repro.service.tenant import TenantRuntime

__all__ = [
    "BUILTIN_SERVE_CONFIGS",
    "SERVE_SCHEMA_VERSION",
    "ServeConfig",
    "TenantSpec",
    "builtin_serve_config",
    "resolve_serve_config",
    "TokenBucket",
    "PipelineVersion",
    "ReloadRegistry",
    "fresh_pipeline",
    "ServiceResult",
    "TraceCheckService",
    "run_service",
    "TenantRuntime",
]
