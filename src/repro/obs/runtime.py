"""Operational telemetry plane: Prometheus text exposition, stdlib-only.

:func:`render_prometheus` turns metric families — a name, a kind, label
names and samples keyed by tuples of label values — into the
Prometheus text exposition format (version 0.0.4) the service's
``/metrics`` endpoint speaks, and :func:`parse_prometheus` reads such
text back: the same tiny parser the tests and the CI smoke job use to
assert a live scrape is well-formed.

Rendering is deterministic: families sort by name, samples by label
set, and a histogram's per-bound counts become the cumulative ``le``
series Prometheus requires (with ``+Inf`` equal to the observation
count).  See docs/operations.md for the metric catalog.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Sequence, Tuple

__all__ = [
    "CONTENT_TYPE",
    "PromScrape",
    "parse_prometheus",
    "render_prometheus",
    "sanitize_metric_name",
]

#: the content type Prometheus scrapers expect from a text endpoint.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: one metric family: ``(name, kind, label names, samples)``.  ``kind``
#: is ``"counter"``, ``"gauge"`` or ``"histogram"``; ``samples`` maps a
#: tuple of label values, one per label name, to a number — or, for a
#: histogram, to ``(buckets, total)``: ``buckets`` maps an upper bound to
#: the observations above the next lower bound and at or under it
#: (``math.inf`` past the top bound), ``total`` is their sum.
Family = Tuple[str, str, Sequence[str], Mapping[Tuple[str, ...], Any]]

_NAME_OK = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_OK = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*$")
_BAD_NAME_CHARS = re.compile(r"[^a-zA-Z0-9_:]")
_BAD_LABEL_CHARS = re.compile(r"[^a-zA-Z0-9_]")

#: one exposition line: name{labels} value  (labels optional)
_SAMPLE_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r"\s+(?P<value>\S+)$"
)
_LABEL_PAIR = re.compile(
    r'\s*(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)='
    r'"(?P<value>(?:\\.|[^"\\])*)"\s*(?:,|$)'
)


def sanitize_metric_name(name: str) -> str:
    """Coerce an internal metric name (dots allowed) to the Prometheus
    identifier charset ``[a-zA-Z_:][a-zA-Z0-9_:]*``."""
    if _NAME_OK.match(name):
        return name
    out = _BAD_NAME_CHARS.sub("_", name)
    if not out or not re.match(r"[a-zA-Z_:]", out[0]):
        out = "_" + out
    return out


def _sanitize_label_name(name: str) -> str:
    if _LABEL_OK.match(name):
        return name
    out = _BAD_LABEL_CHARS.sub("_", name)
    if not out or not re.match(r"[a-zA-Z_]", out[0]):
        out = "_" + out
    return out


def _escape_value(value: str) -> str:
    """Prometheus label-value escaping: backslash, quote, newline."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _format_number(value: float) -> str:
    """Deterministic sample formatting: integral values render without a
    trailing ``.0``, non-finite values use the exposition spellings."""
    value = float(value)
    if value != value:
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _label_str(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{_sanitize_label_name(k)}="{_escape_value(labels[k])}"'
        for k in sorted(labels)
    )
    return "{" + inner + "}"


def _histogram_lines(
    fam: str, labels: Dict[str, str], buckets: Mapping[float, float],
    total: float,
) -> List[str]:
    """The cumulative ``_bucket`` series (one line per bound that holds
    observations, then ``+Inf``), ``_sum`` and ``_count``."""
    lines: List[str] = []
    cumulative = 0.0
    for bound in sorted(buckets):
        if bound == math.inf:
            continue
        cumulative += buckets[bound]
        le = _label_str({**labels, "le": _format_number(bound)})
        lines.append(f"{fam}_bucket{le} {_format_number(cumulative)}")
    count = _format_number(sum(buckets.values()))
    le = _label_str({**labels, "le": "+Inf"})
    return lines + [
        f"{fam}_bucket{le} {count}",
        f"{fam}_sum{_label_str(labels)} {_format_number(total)}",
        f"{fam}_count{_label_str(labels)} {count}",
    ]


def render_prometheus(families: Iterable[Family], *, prefix: str = "") -> str:
    """Render metric families (see :data:`Family`) as Prometheus text
    exposition.

    ``prefix`` (e.g. ``"repro_"``) is prepended to every sanitized
    family name.  Output is byte-deterministic for given families: one
    ``# TYPE`` line per family with samples, families sorted by name,
    samples by label set (families given twice under one name share
    the first one's ``# TYPE`` line).
    """
    rendered: Dict[str, List[str]] = {}
    for name, kind, label_names, samples in families:
        if not samples:
            continue
        fam = prefix + sanitize_metric_name(name)
        by_labels = []
        for values, value in samples.items():
            labels = dict(zip(label_names, values))
            if kind == "histogram":
                lines = _histogram_lines(fam, labels, *value)
            else:
                lines = [f"{fam}{_label_str(labels)} {_format_number(value)}"]
            by_labels.append((_label_str(labels), lines))
        rendered.setdefault(fam, [f"# TYPE {fam} {kind}"]).extend(
            line for _, lines in sorted(by_labels) for line in lines
        )
    out = [line for fam in sorted(rendered) for line in rendered[fam]]
    return "\n".join(out) + ("\n" if out else "")


@dataclass
class PromScrape:
    """A parsed exposition page: flat samples plus family types."""

    samples: Dict[str, float] = field(default_factory=dict)
    types: Dict[str, str] = field(default_factory=dict)

    def value(self, name: str, **labels: str) -> float:
        """The sample for ``name`` + exact label set (KeyError if absent)."""
        key = name + _label_str({k: str(v) for k, v in labels.items()})
        return self.samples[key]

    def family(self, name: str) -> Dict[str, float]:
        """Every sample whose metric name is exactly ``name``."""
        return {
            k: v for k, v in self.samples.items()
            if k == name or k.startswith(name + "{")
        }


def _parse_value(text: str) -> float:
    lowered = text.lower()
    if lowered in ("+inf", "inf"):
        return float("inf")
    if lowered == "-inf":
        return float("-inf")
    if lowered == "nan":
        return float("nan")
    return float(text)


def parse_prometheus(text: str) -> PromScrape:
    """Parse Prometheus text exposition (the subset we render).

    Strict on sample lines — a malformed line raises ``ValueError`` so
    the CI smoke job fails loudly when the endpoint regresses.  Returns
    a :class:`PromScrape`; duplicate sample keys also raise.
    """
    scrape = PromScrape()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) >= 4 and parts[1] == "TYPE":
                scrape.types[parts[2]] = parts[3]
            continue
        match = _SAMPLE_LINE.match(line)
        if not match:
            raise ValueError(f"line {lineno}: malformed sample: {raw!r}")
        name = match.group("name")
        labels: Dict[str, str] = {}
        inner = match.group("labels")
        if inner:
            pos = 0
            while pos < len(inner):
                pair = _LABEL_PAIR.match(inner, pos)
                if not pair:
                    raise ValueError(
                        f"line {lineno}: malformed labels: {raw!r}"
                    )
                value = pair.group("value")
                value = (
                    value.replace("\\n", "\n")
                    .replace('\\"', '"')
                    .replace("\\\\", "\\")
                )
                labels[pair.group("key")] = value
                pos = pair.end()
        try:
            value = _parse_value(match.group("value"))
        except ValueError:
            raise ValueError(
                f"line {lineno}: bad sample value: {raw!r}"
            ) from None
        key = name + _label_str(labels)
        if key in scrape.samples:
            raise ValueError(f"line {lineno}: duplicate sample: {key}")
        scrape.samples[key] = value
    return scrape
