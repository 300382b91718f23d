"""Content-addressed on-disk result cache for sweep trials.

Layout: one JSON file per trial under the cache directory, named
``<spec-digest>.json``.  Each file records the code version that wrote
it; a version mismatch (or any unreadable/foreign file) is treated as a
miss, so bumping ``repro.__version__`` invalidates the whole cache
without deleting anything.  Writes are atomic (temp file + rename) so a
killed run never leaves a half-written entry.

Only *successful* records are stored — failures always re-execute on
the next run.
"""

from __future__ import annotations

import json
import os
import pathlib
import tempfile
from dataclasses import dataclass
from typing import Optional, Union

from .jobs import RECORD_PAYLOADS, RunRecord, RunSpec

__all__ = [
    "ResultCache", "CacheStats", "current_code_version", "CACHE_SCHEMA",
    "DEFAULT_CACHE_DIR",
]

#: bump when the cache file format itself changes.
CACHE_SCHEMA = 1
#: where ``repro serve`` keeps results when no directory is given.
DEFAULT_CACHE_DIR = ".repro-cache"


def current_code_version() -> str:
    """The running code's version tag (part of every cache entry)."""
    from .. import __version__

    return __version__


@dataclass(frozen=True)
class CacheStats:
    """Size and traffic counters of a :class:`ResultCache`.

    ``entries``/``total_bytes`` describe the directory right now;
    ``hits``/``misses`` count this *instance's* lookups (a hit is a
    usable entry, a miss is anything else — absent, corrupt, foreign,
    or written by a different code version).
    """

    entries: int
    total_bytes: int
    hits: int
    misses: int

    @property
    def hit_rate(self) -> float:
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0


class ResultCache:
    """Digest-keyed store of completed trial measurements."""

    def __init__(
        self,
        directory: Union[str, os.PathLike],
        *,
        code_version: Optional[str] = None,
    ) -> None:
        self.directory = pathlib.Path(directory)
        self.code_version = (
            code_version if code_version is not None else current_code_version()
        )
        #: lifetime lookup counters of this instance (see :meth:`stats`).
        self.hits = 0
        self.misses = 0
        #: :meth:`put` calls the disk refused (full, read-only, ...).
        self.put_errors = 0

    # ------------------------------------------------------------------
    def _path(self, digest: str) -> pathlib.Path:
        return self.directory / f"{digest}.json"

    def get(self, spec: RunSpec) -> Optional[RunRecord]:
        """The cached record for a spec, or None on any kind of miss."""
        record = self._load(spec)
        if record is None:
            self.misses += 1
        else:
            self.hits += 1
        return record

    def _read(self, path: pathlib.Path) -> Optional[dict]:
        """The entry at ``path`` if this code version can serve it.

        The one validity rule: the file parses to a dict with this
        :data:`CACHE_SCHEMA`, this code version and a dict
        ``measurement``.  Anything else is None — a miss for
        :meth:`get`, a stale file for :meth:`prune`.
        """
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        if (
            not isinstance(payload, dict)
            or payload.get("schema") != CACHE_SCHEMA
            or payload.get("code_version") != self.code_version
            or not isinstance(payload.get("measurement"), dict)
        ):
            return None
        return payload

    def _load(self, spec: RunSpec) -> Optional[RunRecord]:
        payload = self._read(self._path(spec.digest()))
        if payload is None:
            return None
        meta = payload.get("record", {})
        measurement = RunRecord.measurement_from_dict(payload["measurement"])
        return RunRecord(
            digest=spec.digest(),
            ok=True,
            measurement=measurement,
            wall_time=float(meta.get("wall_time", 0.0)),
            worker=str(meta.get("worker", "")),
            attempts=int(meta.get("attempts", 1)),
            cached=True,
            # a payload of the wrong JSON type reads as absent
            **{
                name: payload.get(name)
                for name, json_type in RECORD_PAYLOADS.items()
                if isinstance(payload.get(name), json_type)
            },
        )

    def put(self, spec: RunSpec, record: RunRecord) -> None:
        """Store a successful record (failed records are never cached).

        Never raises on a disk that refuses the write (full, read-only,
        gone): the entry is skipped — the next lookup of this digest is
        a miss — the failure is counted in ``put_errors`` and logged as
        one warning, and the caller's results stand.
        """
        if not record.ok or record.measurement is None:
            return
        payload = {
            "schema": CACHE_SCHEMA,
            "code_version": self.code_version,
            "digest": record.digest,
            "spec": spec.describe(),
            "record": {
                "wall_time": record.wall_time,
                "worker": record.worker,
                "attempts": record.attempts,
            },
            "measurement": record.measurement_dict(),
        }
        payload.update(
            (name, value) for name, value in record.payloads().items()
            if value is not None
        )
        # One compact string: ``json.dumps`` without ``indent`` runs the
        # C encoder, ``json.dump`` never does, and a trial's span
        # payload can be megabytes.  Readers parse either layout.
        text = json.dumps(payload, separators=(",", ":"))
        try:
            # Atomic publish: a reader either sees the old entry or the
            # new complete one, never a torn write.
            self.directory.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(
                dir=self.directory, prefix=".tmp-", suffix=".json"
            )
            try:
                with os.fdopen(fd, "w") as handle:
                    handle.write(text)
                os.replace(tmp_name, self._path(record.digest))
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
        except OSError as exc:
            self.put_errors += 1
            from ..obs.logging import get_logger

            get_logger("cache").warning(
                "cache_put_failed", digest=record.digest[:12],
                directory=str(self.directory), error=repr(exc),
            )

    # ------------------------------------------------------------------
    def _entries(self):
        if not self.directory.is_dir():
            return
        for path in sorted(self.directory.iterdir()):
            if path.suffix == ".json" and not path.name.startswith("."):
                yield path

    def stats(self) -> CacheStats:
        """Directory totals plus this instance's hit/miss counters."""
        entries = 0
        total_bytes = 0
        for path in self._entries():
            entries += 1
            try:
                total_bytes += path.stat().st_size
            except OSError:
                pass
        return CacheStats(
            entries=entries, total_bytes=total_bytes,
            hits=self.hits, misses=self.misses,
        )

    def prune(self) -> int:
        """Remove entries this code version can never serve again.

        Deletes cache files that are corrupt (unreadable / not JSON /
        wrong shape), carry a different :data:`CACHE_SCHEMA`, or were
        written by a different code version.  Files that are not cache
        entries at all (foreign extensions, dotfiles) are left alone.
        Returns the number of files removed.
        """
        removed = 0
        for path in self._entries():
            if self._read(path) is not None:
                continue
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def __len__(self) -> int:
        return sum(1 for _ in self._entries())

    def __repr__(self) -> str:
        return (
            f"<ResultCache {str(self.directory)!r} "
            f"entries={len(self)} version={self.code_version!r}>"
        )
