"""Shared caching layer: in-memory LRU building block + on-disk artifact store.

Two storage primitives back every cache in the library:

* :class:`LRUCache` — the small generic thread-safe LRU originally grown for
  the multiplier/engine caches (now :mod:`repro.multipliers.cache` and the
  engine/backend registries, all of which import it from here).  Anything
  process-local and expensive to rebuild — generated multipliers, compiled
  engines, resolved backends — sits in one of these.
* :class:`ArtifactStore` — a content-addressed on-disk store for pipeline
  artifacts.  Keys are SHA-256 digests of a canonical-JSON *fingerprint* of
  everything that determines the artifact (method, modulus,
  :class:`~repro.synth.flow.SynthesisOptions`, device model, flow schema
  version), so any change to the inputs automatically misses the cache and
  stale entries are simply never addressed again.  Values are JSON (results,
  reports) or pickle (netlists, mapped networks) files laid out as::

      <root>/v1/<key[:2]>/<key>.json      # put_json / get_json
      <root>/v1/<key[:2]>/<key>.pkl       # put_pickle / get_pickle

  The default root is ``~/.cache/gf2m-repro`` (``$XDG_CACHE_HOME`` aware),
  overridable per call site (the CLI's ``--cache-dir``) or globally with the
  ``GF2M_REPRO_CACHE_DIR`` environment variable.  Writes are atomic
  (tempfile + rename), so concurrent sweep workers can share one store
  without locking.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import tempfile
import threading
import weakref
from collections import OrderedDict
from pathlib import Path
from typing import Any, Callable, Dict, Hashable, NamedTuple, Optional

from ..telemetry import metrics as _metrics

__all__ = [
    "CacheInfo",
    "LRUCache",
    "ArtifactStore",
    "StoreInfo",
    "canonical_fingerprint",
    "default_cache_root",
    "named_caches",
]

#: Bumped whenever the flow produces different artifacts for identical
#: inputs (mapper/packer/timing changes), so old on-disk entries are
#: no longer addressed.
ARTIFACT_SCHEMA_VERSION = 1


class CacheInfo(NamedTuple):
    """A point-in-time snapshot of cache effectiveness counters."""

    hits: int
    misses: int
    evictions: int
    currsize: int
    maxsize: int


class LRUCache:
    """A bounded mapping with least-recently-used eviction and a lock.

    ``get_or_create`` is the primary interface: it runs the factory under the
    cache lock, so concurrent requests for the same key never duplicate the
    (potentially expensive) construction work.  Pure-Python multiplier
    generation holds the GIL anyway, so serializing builders costs nothing.

    A ``name`` registers the instance in the process-wide named-cache view
    (see :func:`named_caches`), which is how ``repro stats`` surfaces every
    long-lived memo — multipliers, compiled engines, bitsliced netlists,
    FieldIR programs, backend instances — in one table.
    """

    def __init__(self, maxsize: int = 32, name: Optional[str] = None) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be at least 1")
        self._maxsize = maxsize
        self.name = name
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self._lock = threading.RLock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        if name is not None:
            _NAMED_CACHES[name] = self

    def get_or_create(self, key: Hashable, factory: Callable[[], object]) -> object:
        """Return the cached value for ``key``, building it with ``factory`` on a miss."""
        with self._lock:
            if key in self._entries:
                self._hits += 1
                self._entries.move_to_end(key)
                return self._entries[key]
            self._misses += 1
            value = factory()
            self._entries[key] = value
            if len(self._entries) > self._maxsize:
                self._entries.popitem(last=False)
                self._evictions += 1
            return value

    def peek(self, key: Hashable) -> Optional[object]:
        """The cached value for ``key`` (or None) without touching LRU order or stats."""
        with self._lock:
            return self._entries.get(key)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        """Drop every entry and reset the statistics counters."""
        with self._lock:
            self._entries.clear()
            self._hits = self._misses = self._evictions = 0

    def info(self) -> CacheInfo:
        """Hit/miss/eviction counters and current occupancy."""
        with self._lock:
            return CacheInfo(self._hits, self._misses, self._evictions, len(self._entries), self._maxsize)


#: Weak registry of named caches: entries disappear with their cache, so
#: tests that build throwaway instances never pollute ``repro stats``.
_NAMED_CACHES: "weakref.WeakValueDictionary[str, LRUCache]" = weakref.WeakValueDictionary()


def named_caches() -> Dict[str, LRUCache]:
    """The live named :class:`LRUCache` instances, by name."""
    return dict(_NAMED_CACHES)


# --------------------------------------------------------------------- disk


class StoreInfo(NamedTuple):
    """Effectiveness counters of one :class:`ArtifactStore` instance."""

    hits: int
    misses: int
    writes: int
    root: str


def default_cache_root() -> Path:
    """The default on-disk store location.

    Resolution order: ``$GF2M_REPRO_CACHE_DIR``, then
    ``$XDG_CACHE_HOME/gf2m-repro``, then ``~/.cache/gf2m-repro``.
    """
    override = os.environ.get("GF2M_REPRO_CACHE_DIR")
    if override:
        return Path(override).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME")
    if xdg:
        return Path(xdg).expanduser() / "gf2m-repro"
    return Path.home() / ".cache" / "gf2m-repro"


def _jsonable(value: Any) -> Any:
    """Canonicalize a value for fingerprinting (dataclasses become sorted dicts)."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {field.name: _jsonable(getattr(value, field.name)) for field in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"cannot fingerprint value of type {type(value).__name__}: {value!r}")


def canonical_fingerprint(payload: Any) -> str:
    """SHA-256 over the canonical JSON encoding of ``payload``.

    Dataclasses (``SynthesisOptions``, ``DeviceModel``, …) are flattened to
    name/value dicts, keys are sorted and floats use repr round-tripping, so
    the digest is stable across processes and Python versions but changes
    whenever any field of the inputs does — the cache-invalidation contract
    the sweep tests pin down.
    """
    text = json.dumps(_jsonable(payload), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class ArtifactStore:
    """Content-addressed JSON/pickle artifact files under one root directory.

    The store never interprets keys — callers derive them with
    :func:`canonical_fingerprint` from everything that determines the
    artifact.  Hit/miss/write counters are process-local (each sweep worker
    reports its own and the scheduler aggregates per-job flags).
    """

    def __init__(self, root: Optional[os.PathLike] = None) -> None:
        self.root = Path(root).expanduser() if root is not None else default_cache_root()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._writes = 0

    # ------------------------------------------------------------- layout
    def path_for(self, key: str, kind: str = "json") -> Path:
        """The file a given key/kind pair lives at (existing or not)."""
        if kind not in ("json", "pkl"):
            raise ValueError(f"unknown artifact kind {kind!r} (expected 'json' or 'pkl')")
        return self.root / f"v{ARTIFACT_SCHEMA_VERSION}" / key[:2] / f"{key}.{kind}"

    def __contains__(self, key: str) -> bool:
        return self.path_for(key, "json").exists() or self.path_for(key, "pkl").exists()

    # -------------------------------------------------------------- access
    def _record(self, hit: bool) -> None:
        with self._lock:
            if hit:
                self._hits += 1
            else:
                self._misses += 1
        registry = _metrics.REGISTRY
        if registry.enabled:
            registry.inc("artifact_store.hits" if hit else "artifact_store.misses")

    def get_json(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored JSON payload for ``key``, or ``None`` on a miss."""
        path = self.path_for(key, "json")
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            # Missing, truncated by a crashed writer, or corrupt: a miss.
            self._record(hit=False)
            return None
        self._record(hit=True)
        return payload

    def put_json(self, key: str, payload: Dict[str, Any]) -> Path:
        """Atomically persist a JSON payload under ``key``; returns its path."""
        return self._write(self.path_for(key, "json"), json.dumps(payload, sort_keys=True, indent=1).encode("utf-8"))

    def get_pickle(self, key: str) -> Optional[Any]:
        """The stored pickled object for ``key``, or ``None`` on a miss."""
        path = self.path_for(key, "pkl")
        try:
            with open(path, "rb") as handle:
                value = pickle.load(handle)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError):
            self._record(hit=False)
            return None
        self._record(hit=True)
        return value

    def put_pickle(self, key: str, value: Any) -> Path:
        """Atomically persist a pickled object under ``key``; returns its path."""
        return self._write(self.path_for(key, "pkl"), pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))

    def _write(self, path: Path, data: bytes) -> Path:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        with self._lock:
            self._writes += 1
        registry = _metrics.REGISTRY
        if registry.enabled:
            registry.inc("artifact_store.writes")
        return path

    # ---------------------------------------------------------- maintenance
    def clear(self) -> int:
        """Delete every artifact of the current schema version; returns the count."""
        removed = 0
        version_dir = self.root / f"v{ARTIFACT_SCHEMA_VERSION}"
        if version_dir.exists():
            for path in sorted(version_dir.rglob("*")):
                if path.is_file():
                    path.unlink()
                    removed += 1
        with self._lock:
            self._hits = self._misses = self._writes = 0
        return removed

    def artifact_count(self) -> int:
        """Number of artifact files currently on disk (all kinds)."""
        version_dir = self.root / f"v{ARTIFACT_SCHEMA_VERSION}"
        if not version_dir.exists():
            return 0
        return sum(1 for path in version_dir.rglob("*") if path.is_file() and not path.name.endswith(".tmp"))

    def info(self) -> StoreInfo:
        """Hit/miss/write counters of this store instance."""
        with self._lock:
            return StoreInfo(self._hits, self._misses, self._writes, str(self.root))
