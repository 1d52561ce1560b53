"""The rule registry: every lint rule the framework runs by default.

Adding a rule = writing a :class:`~repro.analysis.rules.base.Rule` (or
:class:`~repro.analysis.rules.base.ProjectRule`) subclass and listing an
instance here.  Codes are grouped by family:

======== ==========================================================
DET0xx   determinism (randomness, ordering, wall clock)
REG0xx   registration/coverage consistency
API0xx   canonical serialisation
STAT0xx  statistics declaration/reporting
FLT0xx   fault-injection coverage of hardened IO paths
OBS0xx   observability (metric-name catalog discipline)
PERF0xx  performance (vectorized-kernel discipline)
CONC0xx  whole-program lock discipline (repro.analysis.model)
PROTO0xx /v1 protocol conformance (server vs clients vs docs)
COV0xx   catalog liveness (fault sites tested, metrics emitted)
======== ==========================================================
"""

from __future__ import annotations

from typing import Tuple

from repro.analysis.rules.api import CanonicalJsonOnly
from repro.analysis.rules.base import ProjectRule, Rule, SourceFile
from repro.analysis.rules.conc import (
    InconsistentLockForAttribute,
    LockHeldAcrossBlockingCall,
    SharedWriteWithoutLock,
)
from repro.analysis.rules.coverage import FaultSitesExercised, MetricNamesEmitted
from repro.analysis.rules.determinism import (
    NoAdHocRandomness,
    NoUnorderedIteration,
    NoWallClock,
)
from repro.analysis.rules.faults import FaultPointCoverage
from repro.analysis.rules.obs import RegisteredMetricNames
from repro.analysis.rules.perf import NoPerRecordKernelLoops
from repro.analysis.rules.proto import ClientCallsUnknownRoute, RouteContractDrift
from repro.analysis.rules.registry import RegistryConsistency
from repro.analysis.rules.stats import CountersDeclaredAndReported

#: Default rule set, code order.
ALL_RULES: Tuple[Rule, ...] = (
    NoAdHocRandomness(),
    NoUnorderedIteration(),
    NoWallClock(),
    RegistryConsistency(),
    CanonicalJsonOnly(),
    CountersDeclaredAndReported(),
    FaultPointCoverage(),
    RegisteredMetricNames(),
    NoPerRecordKernelLoops(),
    SharedWriteWithoutLock(),
    InconsistentLockForAttribute(),
    LockHeldAcrossBlockingCall(),
    ClientCallsUnknownRoute(),
    RouteContractDrift(),
    FaultSitesExercised(),
    MetricNamesEmitted(),
)

__all__ = [
    "ALL_RULES",
    "ProjectRule",
    "Rule",
    "SourceFile",
    "CanonicalJsonOnly",
    "ClientCallsUnknownRoute",
    "CountersDeclaredAndReported",
    "FaultPointCoverage",
    "FaultSitesExercised",
    "InconsistentLockForAttribute",
    "LockHeldAcrossBlockingCall",
    "MetricNamesEmitted",
    "NoAdHocRandomness",
    "NoPerRecordKernelLoops",
    "NoUnorderedIteration",
    "NoWallClock",
    "RegisteredMetricNames",
    "RegistryConsistency",
    "RouteContractDrift",
    "SharedWriteWithoutLock",
]
