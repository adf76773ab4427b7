"""The one JSON codec of the run configs (``repro.configio``).

Every builtin scenario and serve config and each default config
round-trips through JSON to an equal object, and writes the document
pinned in ``tests/config_golden.json`` byte for byte (key order
included); the bundled ``examples/`` files are those documents as
``json.dump(..., indent=2, sort_keys=True)`` writes them.  A misspelled
key anywhere in a fault plan is rejected, however deep the plan sits.
"""

import json
import os

import pytest

from repro.api import (
    FaultPlan,
    FaultSite,
    FlowGuardPolicy,
    LoadScenario,
    RetryPolicy,
    RunConfig,
    SLOConfig,
    TenantSpec,
)
from repro.loadgen import BUILTIN_SCENARIOS, builtin_scenario
from repro.service import BUILTIN_SERVE_CONFIGS, builtin_serve_config

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "tests", "config_golden.json")) as _fh:
    GOLDEN = json.load(_fh)

CONFIGS = {
    **{f"scenario:{name}": lambda name=name: builtin_scenario(name)
       for name in BUILTIN_SCENARIOS},
    **{f"serve:{name}": lambda name=name: builtin_serve_config(name)
       for name in BUILTIN_SERVE_CONFIGS},
    "SLOConfig.default": SLOConfig.default,
    "FaultPlan.standard_mix": FaultPlan.standard_mix,
    "RetryPolicy": RetryPolicy,
    "FlowGuardPolicy": FlowGuardPolicy,
    "RunConfig": RunConfig,
}

BUNDLED = [("scenarios", name) for name in BUILTIN_SCENARIOS] + [
    ("tenants", name) for name in BUILTIN_SERVE_CONFIGS
]


def test_golden_covers_every_config():
    assert set(GOLDEN) == set(CONFIGS)


@pytest.mark.parametrize("key", sorted(CONFIGS))
def test_round_trip_and_golden_document(key):
    config = CONFIGS[key]()
    text = json.dumps(config.to_dict())
    assert text == json.dumps(GOLDEN[key])
    assert type(config).from_dict(json.loads(text)) == config


@pytest.mark.parametrize("folder,name", BUNDLED)
def test_bundled_example_is_the_document(folder, name):
    key = f"{'scenario' if folder == 'scenarios' else 'serve'}:{name}"
    with open(os.path.join(ROOT, "examples", folder, f"{name}.json"),
              encoding="utf-8") as fh:
        assert fh.read() == json.dumps(
            CONFIGS[key]().to_dict(), indent=2, sort_keys=True
        ) + "\n"


TYPO_SITE = {"probabilty": 0.5}
TYPO_PLAN = {"seed": 1, "drop_pmi": TYPO_SITE}


@pytest.mark.parametrize("cls,data", [
    (FaultSite, TYPO_SITE),
    (FaultPlan, TYPO_PLAN),
    (LoadScenario, {"faults": TYPO_PLAN}),
    (TenantSpec, {"name": "acme", "faults": TYPO_PLAN}),
], ids=["site", "plan", "scenario", "tenant"])
def test_misspelled_fault_key_rejected(cls, data):
    with pytest.raises(ValueError,
                       match="unknown FaultSite keys: probabilty"):
        cls.from_dict(data)
