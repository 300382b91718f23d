"""JSON ingestion of sweep trials: RunSpec and sweep-grid payloads.

The service API (``docs/service.md``), CLI clients and spec files all
speak the same JSON dialect; this module is the single hardened gateway
that turns untrusted payloads into
:class:`~repro.runner.jobs.RunSpec` objects.  Scenario and topology
factories are referenced *by name* against a closed registry — a
payload can never name an arbitrary import path — and every unknown,
malformed or mistyped field is collected and reported precisely in one
:class:`SpecIngestError` instead of surfacing as a deep exception from
the dataclass layer, so an HTTP front end can turn any bad payload
into one clean 400.

Two payload shapes are understood:

- a **spec**: one trial (``runspec_from_json``), mirroring every
  :class:`RunSpec` field — the fields, their JSON kinds, bounds and
  choices are read from the declarations on the dataclass
  (``repro.runner.jobs.SPEC_OPTIONS``), never re-listed here;
- a **grid**: a Fig. 2-style fraction sweep (``grid_from_json``) that
  expands to the exact spec list
  :func:`~repro.experiments.common.run_fraction_sweep` would build —
  same seed formula, same labels, same digests.

:func:`specs_from_json` accepts either (``{"spec": {...}}``,
``{"grid": {...}}``, or a bare spec object) and always returns a list.
"""

from __future__ import annotations

import functools
from dataclasses import MISSING
from typing import Any, Callable, Dict, List, Optional

__all__ = [
    "SpecIngestError",
    "scenario_registry",
    "topology_registry",
    "scenario_names",
    "topology_names",
    "runspec_from_json",
    "grid_from_json",
    "specs_from_json",
    "spec_payload",
]

#: hard ceiling on how many trials one grid payload may expand to.
MAX_GRID_SPECS = 4096

#: a grid's own fields, next to the RunSpec options flagged ``grid``.
_GRID_ONLY = ("sdn_counts", "runs", "seed_base")


class SpecIngestError(ValueError):
    """A spec/grid payload that failed validation.

    ``errors`` lists every problem found (field name first), so callers
    can report the full shape of what is wrong in one round trip.
    """

    def __init__(self, errors) -> None:
        self.errors = [str(e) for e in errors]
        super().__init__("; ".join(self.errors))


def _ba(n: int):
    """Barabasi-Albert topology (m=2, fixed attachment seed) by name."""
    from ..topology import barabasi_albert

    return barabasi_albert(n, 2, seed=0)


# Registries (and the option tables below) are built lazily, once:
# repro.experiments imports repro.framework which imports repro.config,
# so eager imports here would be circular.
@functools.lru_cache(maxsize=None)
def scenario_registry() -> Dict[str, Callable]:
    """Scenario name -> class, for payloads and the CLI (do not mutate)."""
    from ..experiments import (
        AnnouncementScenario,
        FailoverScenario,
        WithdrawalScenario,
    )

    return {
        "withdrawal": WithdrawalScenario,
        "failover": FailoverScenario,
        "announcement": AnnouncementScenario,
    }


@functools.lru_cache(maxsize=None)
def topology_registry() -> Dict[str, Callable]:
    """Topology name -> sized builder ``builder(n)``, likewise."""
    from ..topology import caida_hierarchy, clique, line, ring, star

    return {
        "clique": clique,
        "line": line,
        "ring": ring,
        "star": star,
        "ba": _ba,
        "caida": caida_hierarchy,
    }


def scenario_names() -> List[str]:
    """The scenario names a payload may reference."""
    return sorted(scenario_registry())


def topology_names() -> List[str]:
    """The topology names a payload may reference."""
    return sorted(topology_registry())


def _show(value: Any) -> str:
    """Short, type-first description of a bad value for error messages."""
    text = repr(value)
    if len(text) > 40:
        text = text[:37] + "..."
    return f"{type(value).__name__} {text}"


class _Fields:
    """Typed field extraction over one payload dict, collecting errors.

    Every getter returns the (validated) value or the default, *never*
    raises — problems accumulate in ``errors`` so a payload with three
    mistakes produces three messages, not one arbitrary first failure.
    """

    def __init__(self, data: Dict[str, Any]) -> None:
        self.data = data
        self.errors: List[str] = []

    def error(self, message: str) -> None:
        self.errors.append(message)

    def reject_unknown(self, known) -> None:
        for name in sorted(set(self.data) - set(known)):
            self.error(
                f"unknown field {name!r} (known fields: "
                f"{', '.join(sorted(known))})"
            )

    def _missing(self, name: str, default, required: bool):
        if required:
            self.error(f"field {name!r} is required")
        return default

    def int_(
        self,
        name: str,
        default: Optional[int] = None,
        *,
        required: bool = False,
        minimum: Optional[int] = None,
    ) -> Optional[int]:
        if name not in self.data:
            return self._missing(name, default, required)
        value = self.data[name]
        if isinstance(value, bool) or not isinstance(value, int):
            self.error(f"field {name!r}: expected an integer, got {_show(value)}")
            return default
        if minimum is not None and value < minimum:
            self.error(f"field {name!r}: must be >= {minimum}, got {value}")
            return default
        return value

    def number(
        self,
        name: str,
        default: Optional[float] = None,
        *,
        required: bool = False,
        minimum: Optional[float] = None,
        allow_none: bool = False,
    ) -> Optional[float]:
        if name not in self.data:
            return self._missing(name, default, required)
        value = self.data[name]
        if value is None and allow_none:
            return None
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            self.error(f"field {name!r}: expected a number, got {_show(value)}")
            return default
        if minimum is not None and value < minimum:
            self.error(f"field {name!r}: must be >= {minimum}, got {value}")
            return default
        return float(value)

    def str_(
        self,
        name: str,
        default: Optional[str] = None,
        *,
        required: bool = False,
        choices=None,
    ) -> Optional[str]:
        if name not in self.data:
            return self._missing(name, default, required)
        value = self.data[name]
        if not isinstance(value, str):
            self.error(f"field {name!r}: expected a string, got {_show(value)}")
            return default
        if choices is not None and value not in choices:
            self.error(
                f"field {name!r}: unknown value {value!r} "
                f"(choose from {', '.join(sorted(choices))})"
            )
            return default
        return value

    def bool_(self, name: str, default: bool = False) -> bool:
        if name not in self.data:
            return default
        value = self.data[name]
        if not isinstance(value, bool):
            self.error(
                f"field {name!r}: expected true or false, got {_show(value)}"
            )
            return default
        return value

    def int_list(
        self,
        name: str,
        default=None,
        *,
        item_minimum: Optional[int] = None,
    ):
        if name not in self.data:
            return default
        value = self.data[name]
        if value is None:
            return default
        if not isinstance(value, (list, tuple)):
            self.error(
                f"field {name!r}: expected a list of integers, "
                f"got {_show(value)}"
            )
            return default
        out: List[int] = []
        for i, item in enumerate(value):
            if isinstance(item, bool) or not isinstance(item, int):
                self.error(
                    f"field {name!r}[{i}]: expected an integer, "
                    f"got {_show(item)}"
                )
                return default
            if item_minimum is not None and item < item_minimum:
                self.error(
                    f"field {name!r}[{i}]: must be >= {item_minimum}, "
                    f"got {item}"
                )
                return default
            out.append(item)
        return out

    def faults(self, name: str = "faults"):
        """A fault schedule: a ``FaultSchedule`` spec object or its
        canonical list form; returns the canonical tuple or None."""
        if name not in self.data or self.data[name] is None:
            return None
        value = self.data[name]
        from ..faults.schedule import FaultSchedule, FaultSpecError

        try:
            if isinstance(value, dict):
                return FaultSchedule.from_spec(value).canonical()
            if isinstance(value, (list, tuple)):
                return FaultSchedule.from_canonical(value).canonical()
        except FaultSpecError as exc:
            self.error(f"field {name!r}: {exc}")
            return None
        self.error(
            f"field {name!r}: expected a fault-schedule object or its "
            f"canonical list form, got {_show(value)}"
        )
        return None

    def option(self, opt):
        """One declared RunSpec option (a dataclass field whose
        metadata carries its JSON kind, bounds and choices)."""
        meta = opt.metadata
        name = meta.get("json", opt.name)
        default = meta.get("json_default", opt.default)
        required = default is MISSING
        if required:
            default = None
        kind = meta["kind"]
        if kind == "bool":
            return self.bool_(name, default)
        if kind == "number":
            return self.number(
                name, default, required=required,
                minimum=meta.get("minimum"), allow_none=default is None,
            )
        if kind == "int":
            return self.int_(
                name, default, required=required, minimum=meta.get("minimum")
            )
        if kind == "str":
            return self.str_(name, default, choices=meta.get("choices"))
        if kind == "factory":
            registry = _FACTORIES[name]()
            chosen = self.str_(
                name, default, required=required, choices=registry
            )
            return registry.get(chosen)
        if kind == "int_list":
            items = self.int_list(name, item_minimum=meta.get("minimum"))
            return tuple(items) if items is not None else None
        return self.faults(name)  # kind == "faults"

    def options(self, opts) -> Dict[str, Any]:
        """Every option of ``opts`` by field name, cross-checked."""
        values = {opt.name: self.option(opt) for opt in opts}
        if values["anatomy"] and not values["spans"]:
            self.error(
                "field 'anatomy': needs 'spans': true (anatomy is "
                "derived from the span payload)"
            )
        return values

    def raise_if_failed(self) -> None:
        if self.errors:
            raise SpecIngestError(self.errors)


def _ensure_dict(payload, what: str) -> Dict[str, Any]:
    if isinstance(payload, str):
        import json

        try:
            payload = json.loads(payload)
        except ValueError as exc:
            raise SpecIngestError([f"{what} is not valid JSON: {exc}"]) from None
    if not isinstance(payload, dict):
        raise SpecIngestError(
            [f"{what} must be a JSON object, got {_show(payload)}"]
        )
    return payload


#: JSON factory field -> the closed name registry it resolves against.
_FACTORIES = {"scenario": scenario_registry, "topology": topology_registry}


@functools.lru_cache(maxsize=None)
def _declared(grid: bool = False):
    """``(options, known field names)`` of a spec payload — or, with
    ``grid``, of a grid payload — derived once from the RunSpec
    declarations."""
    from ..runner.jobs import SPEC_OPTIONS

    options = tuple(o for o in SPEC_OPTIONS if o.metadata["grid"] or not grid)
    names = tuple(o.metadata.get("json", o.name) for o in options)
    return options, names + (_GRID_ONLY if grid else ())


def runspec_from_json(payload) -> "RunSpec":  # noqa: F821 (local import)
    """Parse one trial payload (dict or JSON string) into a RunSpec.

    Raises :class:`SpecIngestError` listing *every* problem: unknown
    fields, type mismatches, out-of-range values, unregistered scenario
    or topology names, and malformed nested fault schedules.
    """
    data = _ensure_dict(payload, "spec")
    options, known = _declared()
    f = _Fields(data)
    f.reject_unknown(known)
    values = f.options(options)
    n, sdn_count = values["n"], values["sdn_count"]
    if n is not None and sdn_count is not None and sdn_count > n:
        f.error(
            f"field 'sdn_count': cannot convert {sdn_count} of {n} ASes"
        )
    if n is not None and values["sdn_members"]:
        outside = [m for m in values["sdn_members"] if m > n]
        if outside:
            f.error(
                f"field 'sdn_members': ASes {outside} outside 1..{n}"
            )
    f.raise_if_failed()

    from ..runner.jobs import RunSpec

    return RunSpec(**values)


def grid_from_json(payload, *, max_specs: int = MAX_GRID_SPECS) -> List:
    """Expand a sweep-grid payload to the RunSpec list the Fig. 2
    harness would build (both go through
    :func:`~repro.runner.jobs.fraction_grid`), so grid submissions
    share digests (and cache entries) with :func:`run_fraction_sweep`
    trials."""
    data = _ensure_dict(payload, "grid")
    options, known = _declared(grid=True)
    f = _Fields(data)
    f.reject_unknown(known)
    values = f.options(options)
    n = values["n"]
    sdn_counts = f.int_list("sdn_counts", None, item_minimum=0)
    runs = f.int_("runs", 1, minimum=1)
    seed_base = f.int_("seed_base", 100)
    if n is not None and sdn_counts:
        too_big = [c for c in sdn_counts if c > n]
        if too_big:
            f.error(
                f"field 'sdn_counts': counts {too_big} exceed n={n}"
            )
    f.raise_if_failed()

    from ..runner.jobs import SpecError, fraction_grid

    try:
        return fraction_grid(
            sdn_counts=sdn_counts, runs=runs, seed_base=seed_base,
            max_specs=max_specs, **values,
        )[2]
    except SpecError as exc:
        raise SpecIngestError([str(exc)]) from None


def specs_from_json(payload) -> List:
    """Parse either payload shape into a spec list.

    ``{"spec": {...}}`` and a bare spec object yield one spec;
    ``{"grid": {...}}`` yields the expanded grid.  Supplying both (or
    neither, for wrapper-shaped payloads) is an error.
    """
    data = _ensure_dict(payload, "payload")
    if "spec" in data and "grid" in data:
        raise SpecIngestError(
            ["payload must contain either 'spec' or 'grid', not both"]
        )
    if "grid" in data:
        extra = sorted(set(data) - {"grid"})
        if extra:
            raise SpecIngestError(
                [f"unexpected fields next to 'grid': {', '.join(extra)}"]
            )
        return grid_from_json(data["grid"])
    if "spec" in data:
        extra = sorted(set(data) - {"spec"})
        if extra:
            raise SpecIngestError(
                [f"unexpected fields next to 'spec': {', '.join(extra)}"]
            )
        return [runspec_from_json(data["spec"])]
    return [runspec_from_json(data)]


def _jsonify(value):
    """Canonical tuples -> JSON-ready lists, recursively."""
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    return value


def spec_payload(spec) -> Dict[str, Any]:
    """The JSON payload form of a RunSpec (inverse of
    :func:`runspec_from_json` for registry-named factories).

    Digest-``always`` fields are always present; the rest appear only
    when set, so pre-existing payloads (and their consumers) see no new
    keys.  Raises :class:`SpecIngestError` when the spec uses factories
    that have no registered name (such specs cannot travel over the
    API).
    """
    from ..runner.jobs import callable_token

    out: Dict[str, Any] = {}
    errors = []
    for opt in _declared()[0]:
        meta = opt.metadata
        name = meta.get("json", opt.name)
        value = getattr(spec, opt.name)
        if meta["kind"] == "factory":
            token = callable_token(value)
            for registered, factory in _FACTORIES[name]().items():
                if callable_token(factory) == token:
                    out[name] = registered
                    break
            else:
                errors.append(
                    f"{name} factory {token} has no registered name"
                )
        elif value is not None and (
            meta["digest"] == "always" or value != opt.default
        ):
            out[name] = _jsonify(value)
    if errors:
        raise SpecIngestError(errors)
    return out
