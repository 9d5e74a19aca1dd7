"""Content-addressed result cache for per-cell simulation records.

A cell's worker payload is already a complete, canonical description of the
computation: protocol name, population size, parameters, derived seeds,
backend, budget, and check cadence — all plain JSON.
Hashing that canonical JSON together with the package's code fingerprint
yields a content address: two jobs that would run the identical simulation
produce the identical key, whatever their job names or submission order,
while any code change or reseeding changes the key.

The cache stores finished cell *records* (the dicts embedded in artifact
documents).  Hits are merged into a job's document by the same shared
helper ``--resume`` uses (:func:`repro.resume.merge_cells`), so a served
artifact is indistinguishable from a freshly computed one —
:func:`stable_document` makes that claim checkable by stripping the only
legitimately varying fields (timestamps, wall times, worker counts).

Persistence
-----------
With a ``cache_dir`` the cache survives the process: every stored record is
also written to ``<cache_dir>/<key>.json`` as a small self-describing
envelope (format version, key, code fingerprint, the record).  Writes are
atomic — a temporary file in the same directory followed by
``os.replace`` — so concurrent writers and crashes can never leave a
half-written entry behind; at worst a stale temp file lingers, which is
ignored.  Files are loaded *lazily*: startup only scans names and sizes,
and an entry's content is read the first time its key is requested, so a
restarted server serves identical resubmissions from disk without paying
for entries it never needs.  An entry that fails to load — truncated,
corrupt JSON, the wrong key, a foreign code fingerprint, or a failed
record — is treated as a miss and *quarantined* (moved into
``<cache_dir>/quarantine/``) so it is inspected at most once.  An optional
``max_disk_bytes`` budget evicts least-recently-used files.
"""

from __future__ import annotations

import copy
import json
import os
import threading
import time
from collections import OrderedDict
from typing import Any, Dict, Optional, Tuple

from ..fingerprint import canonical_json, code_fingerprint, sha256_hex

__all__ = [
    "DISK_FORMAT",
    "VOLATILE_KEYS",
    "ResultCache",
    "cache_key",
    "stable_document",
]

#: Version stamp of the on-disk envelope; bump on incompatible layout
#: changes so old files are quarantined instead of misread.
DISK_FORMAT = 1

#: Subdirectory of ``cache_dir`` where unreadable entries are parked.
QUARANTINE_DIR = "quarantine"

#: Document/record keys that legitimately differ between two executions of
#: the same computation; everything else must match bit for bit.
VOLATILE_KEYS = frozenset({"generated_unix", "workers", "wall_time_s"})


def cache_key(payload: Dict[str, Any], fingerprint: Optional[str] = None) -> str:
    """The content address of one cell computation.

    ``payload`` is the picklable worker payload (canonical spec-cell JSON,
    including the derived seeds); ``fingerprint`` defaults to the current
    :func:`~repro.fingerprint.code_fingerprint`.
    """
    if fingerprint is None:
        fingerprint = code_fingerprint()
    return sha256_hex(canonical_json({"cell": payload, "code": fingerprint}))


def stable_document(value: Any) -> Any:
    """A deep copy of ``value`` with every volatile field removed.

    Two artifact documents for the same spec and seeds — one computed by
    workers, one assembled from cache hits, one written by the CLI — must
    be equal under this projection; the CI smoke asserts exactly that.
    """
    if isinstance(value, dict):
        return {
            key: stable_document(item)
            for key, item in value.items()
            if key not in VOLATILE_KEYS
        }
    if isinstance(value, list):
        return [stable_document(item) for item in value]
    return value


_KEY_CHARS = frozenset("0123456789abcdef")


def _is_cache_key(name: str) -> bool:
    """Whether a filename stem looks like one of our sha256 hex keys."""
    return len(name) == 64 and set(name) <= _KEY_CHARS


class ResultCache:
    """Thread-safe LRU cache of finished cell records, content-addressed.

    Args:
        max_entries: Bound on *in-memory* records; the least recently used
            entry is evicted beyond it.  Cell records are small (run
            summaries, not trajectories), so the default comfortably covers
            thousands of grid cells.
        cache_dir: Optional directory for the persistent layer.  Every
            stored record is also written to ``<key>.json`` (atomically),
            and a key missing from memory is lazily loaded from disk — so
            the cache survives server restarts.
        max_disk_bytes: Optional byte budget for ``cache_dir``; the least
            recently used files are deleted when exceeded (the entry just
            written is never the first victim).

    Records are deep-copied on both :meth:`put` and :meth:`get` so cached
    data can never be mutated through a served document (or vice versa).
    Only *successful* records are cached — a failed cell must re-run.
    """

    def __init__(
        self,
        max_entries: int = 4096,
        cache_dir: Optional[str] = None,
        max_disk_bytes: Optional[int] = None,
    ) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be at least 1")
        if max_disk_bytes is not None and max_disk_bytes < 1:
            raise ValueError("max_disk_bytes must be at least 1")
        self.max_entries = max_entries
        self.cache_dir = os.path.abspath(cache_dir) if cache_dir else None
        self.max_disk_bytes = max_disk_bytes
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._puts = 0
        self._evictions = 0
        self._disk_loads = 0
        self._disk_evictions = 0
        self._quarantined = 0
        self._write_seq = 0
        #: key -> file size in bytes, least recently used first.
        self._disk: "OrderedDict[str, int]" = OrderedDict()
        self._disk_bytes = 0
        if self.cache_dir is not None:
            os.makedirs(self.cache_dir, exist_ok=True)
            self._scan_disk()

    # ------------------------------------------------------------ disk layer
    def _path(self, key: str) -> str:
        assert self.cache_dir is not None
        return os.path.join(self.cache_dir, f"{key}.json")

    def _scan_disk(self) -> None:
        """Index existing ``<key>.json`` files by name and size only.

        Content is *not* read here — loading is lazy, per key, on first
        :meth:`get`.  Files are indexed oldest-modified first so the LRU
        byte budget keeps recent entries across restarts.
        """
        found: list[Tuple[float, str, int]] = []
        with os.scandir(self.cache_dir) as it:
            for entry in it:
                if not entry.is_file():
                    continue
                stem, ext = os.path.splitext(entry.name)
                if ext != ".json" or not _is_cache_key(stem):
                    continue
                stat = entry.stat()
                found.append((stat.st_mtime, stem, stat.st_size))
        for _mtime, key, size in sorted(found):
            self._disk[key] = size
            self._disk_bytes += size

    def _quarantine(self, key: str, reason: str) -> None:
        """Move an unreadable entry aside so it is inspected at most once."""
        quarantine = os.path.join(self.cache_dir, QUARANTINE_DIR)
        try:
            os.makedirs(quarantine, exist_ok=True)
            os.replace(self._path(key), os.path.join(quarantine, f"{key}.json"))
        except OSError:
            try:
                os.remove(self._path(key))
            except OSError:
                pass
        self._drop_disk_entry(key)
        self._quarantined += 1

    def _drop_disk_entry(self, key: str) -> None:
        size = self._disk.pop(key, None)
        if size is not None:
            self._disk_bytes -= size

    def _load_from_disk(self, key: str) -> Optional[Dict[str, Any]]:
        """Read and validate one entry; quarantine anything untrustworthy.

        Called with the lock held.  The envelope must round-trip JSON, be
        for this exact key, carry the current code fingerprint, and hold a
        successful record — anything else (truncation, corruption, a file
        copied in from another code version) is a miss.
        """
        if key not in self._disk and not os.path.exists(self._path(key)):
            return None
        try:
            with open(self._path(key), "r", encoding="utf-8") as handle:
                envelope = json.load(handle)
        except FileNotFoundError:
            self._drop_disk_entry(key)
            return None
        except (OSError, UnicodeDecodeError, json.JSONDecodeError):
            self._quarantine(key, "unreadable")
            return None
        record = envelope.get("record") if isinstance(envelope, dict) else None
        valid = (
            isinstance(envelope, dict)
            and envelope.get("format") == DISK_FORMAT
            and envelope.get("key") == key
            and envelope.get("code_fingerprint") == code_fingerprint()
            and isinstance(record, dict)
            and record
            and not record.get("error")
        )
        if not valid:
            self._quarantine(key, "invalid envelope")
            return None
        if key in self._disk:
            self._disk.move_to_end(key)
        else:
            # Written by another process sharing the directory after our
            # startup scan: index it so the byte budget stays honest.
            try:
                self._disk[key] = os.path.getsize(self._path(key))
                self._disk_bytes += self._disk[key]
            except OSError:
                pass
        self._disk_loads += 1
        return record

    def _write_to_disk(self, key: str, record: Dict[str, Any]) -> None:
        """Persist one entry via tmp file + atomic rename (lock held).

        The temp name embeds pid, thread id and a per-cache sequence number
        so concurrent writers — other cache instances in this process,
        including ones on other threads, or a second server process sharing
        the directory — never collide; ``os.replace`` makes the publish
        atomic, so readers only ever see complete files.
        """
        self._write_seq += 1
        envelope = {
            "format": DISK_FORMAT,
            "key": key,
            "code_fingerprint": code_fingerprint(),
            "saved_unix": time.time(),
            "record": record,
        }
        data = json.dumps(envelope, sort_keys=True, separators=(",", ":"))
        tmp_path = os.path.join(
            self.cache_dir,
            f".{key}.{os.getpid()}.{threading.get_ident()}.{self._write_seq}.tmp",
        )
        try:
            with open(tmp_path, "w", encoding="utf-8") as handle:
                handle.write(data)
            os.replace(tmp_path, self._path(key))
        except OSError:
            # Disk trouble must never fail the put: the in-memory layer
            # still has the record; persistence is best-effort.
            try:
                os.remove(tmp_path)
            except OSError:
                pass
            return
        self._drop_disk_entry(key)
        self._disk[key] = len(data.encode("utf-8"))
        self._disk_bytes += self._disk[key]
        if self.max_disk_bytes is not None:
            while self._disk_bytes > self.max_disk_bytes and len(self._disk) > 1:
                victim, size = self._disk.popitem(last=False)
                self._disk_bytes -= size
                try:
                    os.remove(self._path(victim))
                except OSError:
                    pass
                self._disk_evictions += 1

    # ---------------------------------------------------------------- lookup
    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """Return a copy of the record stored under ``key``, or ``None``.

        Falls back to the persistent layer on a memory miss (when a
        ``cache_dir`` is configured); a successful disk load promotes the
        record into the in-memory LRU so repeated hits stay cheap.
        """
        with self._lock:
            record = self._entries.get(key)
            if record is None and self.cache_dir is not None:
                record = self._load_from_disk(key)
                if record is not None:
                    self._store_in_memory(key, record)
            if record is None:
                self._misses += 1
                return None
            if key in self._entries:
                self._entries.move_to_end(key)
            self._hits += 1
            return copy.deepcopy(record)

    def _store_in_memory(self, key: str, record: Dict[str, Any]) -> None:
        if key not in self._entries and len(self._entries) >= self.max_entries:
            self._entries.popitem(last=False)
            self._evictions += 1
        self._entries[key] = copy.deepcopy(record)
        self._entries.move_to_end(key)

    def put(self, key: str, record: Dict[str, Any]) -> bool:
        """Store a *successful* cell record; failed records are refused."""
        if not record or record.get("error"):
            return False
        with self._lock:
            self._store_in_memory(key, record)
            if self.cache_dir is not None:
                self._write_to_disk(key, self._entries[key])
            self._puts += 1
            return True

    def stats(self) -> Dict[str, Any]:
        """Hit/miss accounting for the ``/cache/stats`` endpoint."""
        with self._lock:
            total = self._hits + self._misses
            return {
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "hits": self._hits,
                "misses": self._misses,
                "puts": self._puts,
                "evictions": self._evictions,
                "hit_rate": round(self._hits / total, 4) if total else None,
                "cache_dir": self.cache_dir,
                "disk_entries": len(self._disk),
                "disk_bytes": self._disk_bytes,
                "max_disk_bytes": self.max_disk_bytes,
                "disk_loads": self._disk_loads,
                "disk_evictions": self._disk_evictions,
                "quarantined": self._quarantined,
                "code_fingerprint": code_fingerprint(),
            }

    def clear(self) -> None:
        """Drop every in-memory entry (disk files and accounting persist)."""
        with self._lock:
            self._entries.clear()
