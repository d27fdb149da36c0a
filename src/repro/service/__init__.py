"""Circle-analytics service layer: an async query API over frozen stores.

This package turns a directory of frozen ``repro-csr-dir`` stores into a
long-running HTTP service (stdlib asyncio only — no web framework):

* :mod:`repro.service.registry` — multi-tenant dataset residency with
  lazy :meth:`~repro.engine.AnalysisContext.open` attach and lease-safe
  LRU eviction;
* :mod:`repro.service.batching` — micro-batching that coalesces
  concurrent score requests into single engine invocations;
* :mod:`repro.service.http` — the minimal HTTP/1.1 wire layer;
* :mod:`repro.service.app` — routes, layered caching (ETag/304 →
  in-memory bodies → on-disk :class:`~repro.engine.ResultCache`) and
  graceful shutdown.

Start one with ``repro serve <root>`` or programmatically::

    from repro.service import CircleService, ServiceConfig

    service = CircleService(ServiceConfig(root="stores/", port=0))
    await service.start()          # service.address -> (host, port)
    ...
    await service.shutdown()

The operator runbook, endpoint catalogue and caching model live in
``docs/SERVICE.md``.
"""

from repro.service.app import ROUTES, CircleService, Route, ServiceConfig
from repro.service.batching import MicroBatcher
from repro.service.http import HttpError, Request, Response
from repro.service.registry import (
    DatasetRegistry,
    ResidentDataset,
    UnknownDatasetError,
)

__all__ = [
    "CircleService",
    "DatasetRegistry",
    "HttpError",
    "MicroBatcher",
    "Request",
    "ResidentDataset",
    "Response",
    "ROUTES",
    "Route",
    "ServiceConfig",
    "UnknownDatasetError",
]
