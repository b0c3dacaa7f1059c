"""The Ballista robustness-testing harness (the paper's contribution).

The harness is a combination of software-testing and fault-injection
techniques: exceptional parameter values, organised by *data type* rather
than by function, are injected through an API and the response of each
Module under Test (MuT) is classified on the **CRASH** severity scale.

Pipeline::

    TypeRegistry  -- parameter types + test-value pools (with inheritance)
        |
    MuTRegistry   -- functions/system calls to test, with typed signatures
        |
    CaseGenerator -- exhaustive or 5000-capped pseudorandom combinations
        |                (identical order across OS variants)
    Executor      -- one fresh simulated process per test case on a
        |                persistent simulated machine
    Classifier    -- CRASH scale: Catastrophic / Restart / Abort /
        |                Silent / Hindering / pass
    ResultSet     -- per-case codes, per-MuT rates, campaign aggregates
"""

from repro.core.campaign import Campaign, CampaignConfig, run_single_case
from repro.core.crash_scale import CaseCode, Severity
from repro.core.generator import CaseGenerator, TestCase
from repro.core.mut import MuT, MuTRegistry, default_registry
from repro.core.parallel import (
    ParallelCampaign,
    SupervisedCampaign,
    default_jobs,
)
from repro.core.results import MuTResult, QuarantineRecord, ResultSet
from repro.core.results_io import load_results, save_results
from repro.core.supervisor import SupervisorPolicy
from repro.core.types import ParamType, TestValue, TypeRegistry, default_types

__all__ = [
    "Campaign",
    "CampaignConfig",
    "ParallelCampaign",
    "QuarantineRecord",
    "SupervisedCampaign",
    "SupervisorPolicy",
    "default_jobs",
    "CaseCode",
    "CaseGenerator",
    "MuT",
    "MuTRegistry",
    "MuTResult",
    "ParamType",
    "ResultSet",
    "Severity",
    "TestCase",
    "TestValue",
    "TypeRegistry",
    "default_registry",
    "default_types",
    "load_results",
    "save_results",
    "run_single_case",
]
