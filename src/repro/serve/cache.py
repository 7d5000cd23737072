"""In-memory LRU cache of served score rows, keyed by utterance digest.

Decoding + supervector extraction is the dominant cost of scoring an
utterance (the φ(x) work of the paper's Eqs. 16–19; Table 5 shows
decoding at ~two orders of magnitude above the SVM product).  The DBA
and transductive workloads — and any downstream consumer that re-scores
a corpus — score the *same* utterances repeatedly, so the serving
engine memoises, per utterance digest, the calibrated ``(K,)`` row it
served.  The row depends only on the utterance and the engine's fixed
fusion backend, whose rows do not depend on the batch they are fused
in, so a hit is final: it skips decode, φ(x), the SVM product and the
calibration backend alike, and costs a lookup and a copy.  The engine
looks a submitted request up at admission and answers a hit there, on
the submitting thread, without waiting for the batch window; only
misses are queued and batched.  Each request gets one counted lookup:
a hit at admission, or the batch's lookup for a request admission did
not find.  Rows fused from a degraded batch (a frontend down) are never
stored, so every hit is the full LDA-MMI row.

Recency bookkeeping is :class:`repro.utils.lru.LruTracker`.  All
methods are thread-safe — the HTTP server scores from multiple threads.

Hit/miss accounting lives in :mod:`repro.obs.metrics` counters
(``serve.cache.hits`` / ``serve.cache.misses``); by default each cache
owns a private registry so two caches in one process never mix counts,
and the owning engine passes its registry in so ``/stats`` and runlogs
see one coherent snapshot.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.obs.metrics import MetricsRegistry
from repro.utils.lru import LruTracker

__all__ = ["ScoreCache"]


class ScoreCache:
    """Bounded, thread-safe LRU mapping utterance digests to score rows.

    Parameters
    ----------
    max_entries:
        Size bound; ``None`` disables eviction.  Stored values are the
        engine's served ``(n_classes,)`` float rows.
    registry:
        The :class:`~repro.obs.metrics.MetricsRegistry` to publish
        hit/miss counters into; ``None`` creates a private one.
    """

    def __init__(
        self,
        max_entries: int | None = 512,
        *,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self._store: dict[str, np.ndarray] = {}
        self._lru = LruTracker(max_entries)
        self._lock = threading.Lock()
        self.metrics = registry if registry is not None else MetricsRegistry()
        self._hits = self.metrics.counter("serve.cache.hits")
        self._misses = self.metrics.counter("serve.cache.misses")
        self._entries = self.metrics.gauge("serve.cache.entries")

    @property
    def max_entries(self) -> int | None:
        """The configured size bound (``None`` = unbounded)."""
        return self._lru.max_entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._store)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._store

    def get(self, key: str, *, count_miss: bool = True) -> np.ndarray | None:
        """Look up a digest; counts a hit, or a miss if ``count_miss``.

        ``count_miss=False`` is the engine's admission lookup: a miss
        there is counted later, by the batch that scores the request.
        """
        with self._lock:
            value = self._store.get(key)
            if value is None:
                if count_miss:
                    self._misses.inc()
                return None
            self._hits.inc()
            self._lru.touch(key)
            return value

    def put(self, key: str, value: np.ndarray) -> None:
        """Insert a score row, evicting the least recently used.

        The value is copied and frozen (``writeable=False``): callers
        often hand in views of a large batch matrix, and storing the
        view would both pin the whole batch in memory for the cache
        entry's lifetime and let a later in-place edit silently corrupt
        every future hit.  :meth:`get` returns the frozen array, so the
        bitwise-exactness guarantee cannot be mutated away downstream.
        """
        value = np.array(value, dtype=np.float64)  # defensive copy
        value.setflags(write=False)
        with self._lock:
            self._store[key] = value
            self._lru.touch(key)
            for evicted in self._lru.pop_excess():
                self._store.pop(evicted, None)
            self._entries.set(len(self._store))

    def clear(self) -> None:
        """Drop every entry (hit/miss counters are kept)."""
        with self._lock:
            self._store.clear()
            for key in self._lru.keys():
                self._lru.discard(key)
            self._entries.set(0)

    def stats(self) -> dict:
        """Snapshot of size and hit/miss accounting.

        The keys are unchanged from earlier releases; the counts are now
        read from the :mod:`repro.obs.metrics` instruments, so the same
        numbers also appear under ``serve.cache.*`` in a full metrics
        snapshot.
        """
        with self._lock:
            hits = int(self._hits.value)
            misses = int(self._misses.value)
            total = hits + misses
            return {
                "entries": len(self._store),
                "max_entries": self._lru.max_entries,
                "hits": hits,
                "misses": misses,
                "hit_rate": (hits / total) if total else 0.0,
            }
