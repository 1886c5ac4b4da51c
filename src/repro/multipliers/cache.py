"""Process-wide caching of generated multipliers.

Generating a multiplier re-derives the S_i/T_i splitting of the field and
formally re-verifies the circuit — ~100 ms for GF(2^163) and growing
quadratically with m.  Every path that repeatedly asks for the same
``(method, modulus)`` pair (the registry, the engine backend, the CLI,
the comparison harness, batch services) therefore goes through
:class:`MultiplierCache` instead of calling the generators directly.

The generic LRU building block lives in :mod:`repro.pipeline.store`
(:class:`~repro.pipeline.store.LRUCache`), shared with the sweep pipeline's
artifact layer; this module holds only the multiplier-specific policy.

Cached multipliers are shared objects: callers must treat the netlist as
immutable (the synthesis flow already does — restructuring builds new
netlists).
"""

from __future__ import annotations

import threading

from ..pipeline.store import LRUCache
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from typing import Optional

    from ..pipeline.store import CacheInfo

__all__ = [
    "MultiplierCache",
    "cached_multiplier",
    "default_multiplier_cache",
]


class _MultiplierEntry:
    """A cached multiplier plus whether it has been formally verified yet."""

    __slots__ = ("multiplier", "verified")

    def __init__(self, multiplier, verified: bool) -> None:
        self.multiplier = multiplier
        self.verified = verified


class MultiplierCache:
    """LRU cache of generated multipliers keyed by ``(method, modulus)``.

    The key deliberately excludes the ``verify`` flag: the circuit is
    identical either way, so a verified and an unverified request share one
    entry and verification is upgraded in place at most once.
    """

    def __init__(self, maxsize: int = 32, name: "Optional[str]" = None) -> None:
        self._cache = LRUCache(maxsize=maxsize, name=name)
        self._lock = threading.RLock()

    def get(self, method: str, modulus: int, verify: bool = True):
        """The cached (or freshly generated) multiplier for ``(method, modulus)``.

        When ``verify`` is true the returned multiplier is guaranteed to have
        been formally verified against its product specification — either at
        generation time or by an on-demand upgrade of a cached unverified
        entry.
        """
        from .registry import get_generator

        def build() -> _MultiplierEntry:
            multiplier = get_generator(method).generate(modulus, verify=verify)
            return _MultiplierEntry(multiplier, verified=verify)

        entry = self._cache.get_or_create((method, modulus), build)
        if verify and not entry.verified:
            with self._lock:
                if not entry.verified:
                    from ..netlist.verify import verify_netlist

                    report = verify_netlist(entry.multiplier.netlist, entry.multiplier.spec)
                    if not report:
                        raise RuntimeError(
                            f"cached {method} multiplier failed verification: {report.summary()}"
                        )
                    entry.verified = True
        return entry.multiplier

    def is_verified(self, method: str, modulus: int) -> bool:
        """Whether the cached entry (if any) has been formally verified."""
        entry = self._cache.peek((method, modulus))
        return bool(entry and entry.verified)

    def __contains__(self, key) -> bool:
        return key in self._cache

    def __len__(self) -> int:
        return len(self._cache)

    def clear(self) -> None:
        """Drop all cached multipliers and reset statistics."""
        self._cache.clear()

    def info(self) -> CacheInfo:
        """Hit/miss/eviction counters of the underlying LRU."""
        return self._cache.info()


#: Process-wide default cache used by the registry, CLI and benchmarks.
_DEFAULT_CACHE = MultiplierCache(maxsize=32, name="multipliers")


def default_multiplier_cache() -> MultiplierCache:
    """The process-wide :class:`MultiplierCache` shared by library entry points."""
    return _DEFAULT_CACHE


def cached_multiplier(method: str, modulus: int, verify: bool = True):
    """Fetch a multiplier through the process-wide cache (generating on miss)."""
    return _DEFAULT_CACHE.get(method, modulus, verify=verify)
