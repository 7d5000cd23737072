"""Least-recently-used bookkeeping for the serving score cache.

:class:`LruTracker` orders keys by last touch and, when a bound is
configured, says which keys must go.  It stores no values: the owner
(:class:`repro.serve.cache.ScoreCache`, per-utterance served score rows
in the online scoring service) keeps its own dict and deletes whatever
the tracker evicts.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable

__all__ = ["LruTracker"]


class LruTracker:
    """Recency-ordered key set with a configurable size bound.

    Parameters
    ----------
    max_entries:
        Maximum number of tracked keys; ``None`` disables eviction (the
        tracker then only records recency order).
    """

    def __init__(self, max_entries: int | None = None) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self._order: OrderedDict[Hashable, None] = OrderedDict()

    def __contains__(self, key: Hashable) -> bool:
        return key in self._order

    def __len__(self) -> int:
        return len(self._order)

    def keys(self) -> list[Hashable]:
        """Tracked keys, least- to most-recently used."""
        return list(self._order)

    def touch(self, key: Hashable) -> None:
        """Mark ``key`` as most recently used (adding it if new)."""
        if key in self._order:
            self._order.move_to_end(key)
        else:
            self._order[key] = None

    def discard(self, key: Hashable) -> None:
        """Forget ``key`` if tracked (no-op otherwise)."""
        self._order.pop(key, None)

    def pop_excess(self) -> list[Hashable]:
        """Drop and return the least-recent keys above ``max_entries``.

        The caller must delete the corresponding stored values.  Returns
        an empty list when unbounded or within bound.
        """
        if self.max_entries is None:
            return []
        evicted: list[Hashable] = []
        while len(self._order) > self.max_entries:
            key, _ = self._order.popitem(last=False)
            evicted.append(key)
        return evicted
