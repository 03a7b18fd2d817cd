"""Simulation-as-a-service: a job daemon over the experiment kernels.

``sbgp-sim serve`` turns the one-shot CLI into a long-lived daemon: a
JSON job API (submit / poll / events / cancel), a journal-backed
:class:`~repro.service.store.JobStore` that survives SIGKILL and
resumes in-flight sweeps, a fair priority+FIFO
:class:`~repro.service.scheduler.Scheduler`, and a
:class:`~repro.service.cache.ResultCache` that keeps built
environments (with their state evaluations) and finished sweep cells
across overlapping requests.

Layer map (lint rule RPR012 enforces the kernel boundary)::

    daemon (HTTP)  ->  scheduler (threads)  ->  executor (kernels)
          \\              |                        |
           +--------->  store (journals)   cache (environments + cells)
"""

from repro.service.cache import ResultCache, ResultCacheStats
from repro.service.daemon import ServiceHandler, SimulationService
from repro.service.errors import (
    JobCancelled,
    JobNotFoundError,
    JobStateError,
    ServiceError,
    SpecError,
)
from repro.service.scheduler import Scheduler
from repro.service.specs import (
    JobSpec,
    cell_scope_digest,
    env_digest,
    parse_spec,
    spec_digest,
    spec_to_dict,
)
from repro.service.store import Job, JobStore

__all__ = [
    "ResultCache",
    "ResultCacheStats",
    "ServiceHandler",
    "SimulationService",
    "Scheduler",
    "Job",
    "JobStore",
    "JobSpec",
    "parse_spec",
    "spec_to_dict",
    "spec_digest",
    "env_digest",
    "cell_scope_digest",
    "ServiceError",
    "SpecError",
    "JobNotFoundError",
    "JobStateError",
    "JobCancelled",
]
