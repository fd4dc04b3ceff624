"""On-disk content-addressed store for simulated run records.

Layout (``repro-cache/1``)::

    <root>/
      objects/
        ab/
          ab3f...e1.json     # one run record per fingerprint key

Each file holds one JSON document on one line, keys sorted and no
whitespace between tokens (shown spread out here)::

    {
      "fingerprint": { ... },          # the full canonical fingerprint
      "key": "<sha256 of the canonical fingerprint>",
      "record": { job, result, run },  # see repro.orchestrator.jobs
      "schema": "repro-cache/1"
    }

Readers parse any JSON layout, so entries written indented by earlier
versions are still served.

The file name *is* the content address: ``verify`` recomputes the
fingerprint hash and flags any entry whose stored fingerprint no
longer hashes to its own name (bit rot, hand edits), whose JSON does
not parse, or whose schema is unknown. ``gc`` removes corrupt entries,
entries from older fingerprint generations, and optionally entries
older than ``max_age_days``.

Reads treat any defect as a miss: a corrupt entry can cost a
recomputation, never a wrong result. Writes are atomic
(temp file + ``os.replace``) so a crashed writer leaves no partial
records. Hit/miss/put/error counts are kept on the store and mirrored
into the ambient telemetry metrics registry
(``run_cache_hits_total`` & co.) when one is installed.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .fingerprint import FINGERPRINT_VERSION, fingerprint_key

__all__ = ["CACHE_SCHEMA", "CacheEntry", "RunCache", "resolve_cache_dir"]

CACHE_SCHEMA = "repro-cache/1"

#: Environment variable consulted when no ``--cache-dir`` is given.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
DEFAULT_CACHE_DIR = ".repro-cache"


def resolve_cache_dir(explicit: Optional[str] = None) -> Path:
    """Pick the cache root: flag > ``$REPRO_CACHE_DIR`` > default."""
    if explicit:
        return Path(explicit)
    return Path(os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_DIR)


@dataclass(frozen=True)
class CacheEntry:
    """One stored record, as listed by ``ls``."""

    key: str
    path: Path
    size_bytes: int
    mtime: float
    kind: str = "?"
    label: str = "?"
    fingerprint_version: Optional[int] = None

    @property
    def stale(self) -> bool:
        return self.fingerprint_version != FINGERPRINT_VERSION


class RunCache:
    """Content-addressed run-record store with hit/miss accounting."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.errors = 0

    # -- telemetry ---------------------------------------------------------

    @staticmethod
    def _metric(name: str, help: str):
        from ..telemetry import resolve_telemetry

        return resolve_telemetry(None).counter(name, help)

    def _count_hit(self) -> None:
        self.hits += 1
        self._metric("run_cache_hits_total",
                     "Run-cache lookups served from the store").inc()

    def _count_miss(self) -> None:
        self.misses += 1
        self._metric("run_cache_misses_total",
                     "Run-cache lookups that required a simulation").inc()

    def _count_put(self) -> None:
        self.puts += 1
        self._metric("run_cache_puts_total",
                     "Run records written to the store").inc()

    def _count_error(self) -> None:
        self.errors += 1
        self._metric("run_cache_errors_total",
                     "Corrupt or unreadable run-cache entries").inc()

    # -- paths -------------------------------------------------------------

    def _object_path(self, key: str) -> Path:
        return self.root / "objects" / key[:2] / f"{key}.json"

    # -- core operations ---------------------------------------------------

    def get(self, key: str) -> Optional[dict]:
        """The stored record for ``key``, or None (miss or corrupt)."""
        path = self._object_path(key)
        try:
            with open(path) as handle:
                document = json.load(handle)
        except FileNotFoundError:
            self._count_miss()
            return None
        except (OSError, json.JSONDecodeError):
            self._count_error()
            self._count_miss()
            return None
        if (not isinstance(document, dict)
                or document.get("schema") != CACHE_SCHEMA
                or document.get("key") != key
                or "record" not in document):
            self._count_error()
            self._count_miss()
            return None
        self._count_hit()
        return document["record"]

    def put(self, key: str, fingerprint: dict, record: dict) -> Path:
        """Atomically persist ``record`` under ``key``."""
        path = self._object_path(key)
        document = {
            "schema": CACHE_SCHEMA,
            "key": key,
            "fingerprint": fingerprint,
            "record": record,
        }
        # One C-encoder pass and one write per record.
        text = json.dumps(document, sort_keys=True, separators=(",", ":")) + "\n"
        temporary = path.with_suffix(f".tmp.{os.getpid()}")
        try:
            handle = open(temporary, "w")
        except FileNotFoundError:
            path.parent.mkdir(parents=True, exist_ok=True)
            handle = open(temporary, "w")
        with handle:
            handle.write(text)
        os.replace(temporary, path)
        self._count_put()
        return path

    def __contains__(self, key: str) -> bool:
        return self._object_path(key).exists()

    def __len__(self) -> int:
        return sum(1 for _ in self._object_files())

    def _object_files(self):
        objects = self.root / "objects"
        if not objects.is_dir():
            return
        for bucket in sorted(objects.iterdir()):
            if not bucket.is_dir():
                continue
            for path in sorted(bucket.glob("*.json")):
                yield path

    # -- maintenance -------------------------------------------------------

    def ls(self) -> list[CacheEntry]:
        """Every entry with best-effort metadata (corrupt ones too)."""
        entries = []
        for path in self._object_files():
            stat = path.stat()
            key = path.stem
            kind, label, version = "?", "?", None
            try:
                with open(path) as handle:
                    document = json.load(handle)
                fingerprint = document.get("fingerprint", {})
                record = document.get("record", {})
                kind = record.get("kind", "?")
                job = record.get("job", {})
                label = (
                    f"{job.get('key', job.get('name', '?'))}"
                    f"/{job.get('model', '?')}"
                )
                version = fingerprint.get("fingerprint_version")
            except (OSError, json.JSONDecodeError, AttributeError):
                pass
            entries.append(CacheEntry(
                key=key, path=path, size_bytes=stat.st_size,
                mtime=stat.st_mtime, kind=kind, label=label,
                fingerprint_version=version,
            ))
        return entries

    def verify(self) -> list[str]:
        """Recheck every entry; returns problem strings (empty = clean)."""
        problems = []
        for path in self._object_files():
            key = path.stem
            try:
                with open(path) as handle:
                    document = json.load(handle)
            except (OSError, json.JSONDecodeError) as error:
                problems.append(f"{key}: unreadable ({error})")
                continue
            if document.get("schema") != CACHE_SCHEMA:
                problems.append(
                    f"{key}: schema {document.get('schema')!r} != "
                    f"{CACHE_SCHEMA!r}"
                )
                continue
            if document.get("key") != key:
                problems.append(
                    f"{key}: stored key {document.get('key')!r} does not "
                    "match the file name"
                )
                continue
            fingerprint = document.get("fingerprint")
            if not isinstance(fingerprint, dict):
                problems.append(f"{key}: missing fingerprint")
                continue
            try:
                recomputed = fingerprint_key(fingerprint)
            except Exception as error:
                problems.append(f"{key}: unhashable fingerprint ({error})")
                continue
            if recomputed != key:
                problems.append(
                    f"{key}: fingerprint hashes to {recomputed}; the entry "
                    "was tampered with or corrupted"
                )
                continue
            record = document.get("record")
            if not isinstance(record, dict) or "result" not in record:
                problems.append(f"{key}: record payload missing")
        if problems:
            for _ in problems:
                self._count_error()
        return problems

    def gc(self, max_age_days: Optional[float] = None) -> list[str]:
        """Remove corrupt, stale-generation, and (optionally) old entries.

        Returns the keys of removed entries.
        """
        removed = []
        now = time.time()
        broken = {p.split(":", 1)[0] for p in self.verify()}
        for entry in self.ls():
            reason = None
            if entry.key in broken:
                reason = "corrupt"
            elif entry.stale:
                reason = "stale fingerprint generation"
            elif (max_age_days is not None
                    and now - entry.mtime > max_age_days * 86400.0):
                reason = "expired"
            if reason is None:
                continue
            try:
                entry.path.unlink()
            except OSError:
                continue
            removed.append(entry.key)
        # Drop now-empty bucket directories so ls stays tidy.
        objects = self.root / "objects"
        if objects.is_dir():
            for bucket in objects.iterdir():
                if bucket.is_dir() and not any(bucket.iterdir()):
                    bucket.rmdir()
        return removed
