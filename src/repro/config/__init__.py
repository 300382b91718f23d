"""Configuration management: address allocation, config rendering,
JSON spec ingestion for the service API, and the service's tunables."""

from dataclasses import dataclass
from typing import Optional

from .allocator import AllocationError, PrefixAllocator
from .templates import render_bgpd_conf, render_exabgp_conf, render_route_map


# Here rather than in repro.service, whose import pulls in asyncio: the
# CLI reads these defaults for its serve/client flags on every start.
@dataclass
class ServiceConfig:
    """Tunables of one service instance."""

    host: str = "127.0.0.1"
    port: int = 8351
    cache_dir: Optional[str] = None
    registry_path: Optional[str] = None
    concurrency: int = 1
    max_queue: int = 64
    quota: int = 8


# Spec ingestion resolves scenario/topology names against
# repro.experiments, which imports repro.framework, which imports this
# package — so specio must load lazily (PEP 562) to stay cycle-free.
_LAZY = {
    "SpecIngestError": ".specio",
    "runspec_from_json": ".specio",
    "grid_from_json": ".specio",
    "specs_from_json": ".specio",
    "spec_payload": ".specio",
    "scenario_names": ".specio",
    "topology_names": ".specio",
}


def __getattr__(name):
    if name in _LAZY:
        from importlib import import_module

        value = getattr(import_module(_LAZY[name], __name__), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


__all__ = [
    "AllocationError",
    "PrefixAllocator",
    "render_bgpd_conf",
    "render_exabgp_conf",
    "render_route_map",
    "ServiceConfig",
    "SpecIngestError",
    "runspec_from_json",
    "grid_from_json",
    "specs_from_json",
    "spec_payload",
    "scenario_names",
    "topology_names",
]
