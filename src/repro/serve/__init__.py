"""repro.serve — the concurrent query-serving subsystem.

The paper's prototype services one ephemeral query at a time through a
single configuration port and lists concurrent queries (multiple ports,
context-switching the engine) as future work. This package builds that
layer on top of the simulator:

* :mod:`repro.serve.workload` — seeded open-loop (Poisson/bursty) and
  closed-loop (think-time) request streams over multi-tenant tables;
* :mod:`repro.serve.profiles` — per-(tenant, template) service costs and
  golden answers measured through the real query executor;
* :mod:`repro.serve.scheduler` — configuration-port policies (FCFS,
  round-robin context switching, multi-port) with bounded-queue
  admission control and load shedding;
* :mod:`repro.serve.service` — the serving loop, one ``(time, seq)``
  heap, and the per-tenant SLO report (p50/p95/p99 latency,
  throughput, shed rate).

See ``docs/serving.md`` for the model and a worked example, and
``python -m repro serve --help`` for the CLI.
"""

from .profiles import (
    PROFILE_CACHE,
    QueryProfile,
    WorkloadProfile,
    port_program_ns,
    profile_workload,
)
from .scheduler import (
    POLICIES,
    CtxSwitchScheduler,
    FCFSScheduler,
    MultiPortScheduler,
    Port,
    SchedulerPolicy,
    make_scheduler,
    policy_names,
)
from .service import ServingReport, ServingSystem, TenantSLO
from .workload import (
    Arrival,
    ClosedLoopWorkload,
    OpenLoopWorkload,
    Request,
    TenantSpec,
    default_tenants,
)

__all__ = [
    "Arrival",
    "ClosedLoopWorkload",
    "CtxSwitchScheduler",
    "FCFSScheduler",
    "MultiPortScheduler",
    "OpenLoopWorkload",
    "POLICIES",
    "PROFILE_CACHE",
    "Port",
    "QueryProfile",
    "Request",
    "SchedulerPolicy",
    "ServingReport",
    "ServingSystem",
    "TenantSLO",
    "TenantSpec",
    "WorkloadProfile",
    "default_tenants",
    "make_scheduler",
    "policy_names",
    "port_program_ns",
    "profile_workload",
]
