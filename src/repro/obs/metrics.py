"""Named counters, gauges and histograms with quantile snapshots.

Where :mod:`repro.obs.trace` answers "where did this *run* spend its
time", metrics answer "what is this *process* doing" — monotonically
increasing counters (requests served, utterances decoded), last-value
gauges (queue depth, worker count) and bounded-reservoir histograms with
p50/p95/p99 snapshots (latencies, supervector sizes).

A :class:`MetricsRegistry` maps names to instruments.  The process-wide
default registry (:func:`default_registry`) is what library-level
instrumentation points use — the decoder, the supervector extractor, the
parallel map.  Components with per-instance accounting (one
:class:`~repro.serve.engine.ScoringEngine` per loaded model, one
:class:`~repro.serve.cache.ScoreCache` per engine) own private
registries instead so that two instances in one process never mix
counts; pass ``registry=default_registry()`` to fold them into the
process view (the CLI does this for traced runs so runlogs capture
cache hit rates).

All instruments are thread-safe.  Everything here is stdlib-only;
histogram quantiles use linear interpolation over a bounded reservoir
(matching ``numpy.percentile``'s default method on the retained
samples).

Snapshots are JSON-able and — since the cluster tier
(:mod:`repro.cluster`) runs one registry per worker *process* — they are
also **mergeable**: :func:`merge_snapshots` folds several processes'
snapshots into one aggregate view without double-counting.  Counters
sum, occupancy gauges sum, and histograms pool their reservoir samples
(ask for them with ``snapshot(include_samples=True)``) so the merged
percentiles are computed over the union of the retained samples rather
than averaged — averaging per-process percentiles would be statistically
meaningless.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Iterator, Mapping, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "default_registry",
    "merge_snapshots",
]


def _interpolated_quantile(samples: list[float], q: float) -> float | None:
    """Linear-interpolated percentile of pre-sorted ``samples``.

    The single quantile method shared by :meth:`Histogram.quantile` and
    :func:`merge_snapshots`, matching ``numpy.percentile``'s default.
    """
    if not samples:
        return None
    pos = (len(samples) - 1) * (q / 100.0)
    lo = int(pos)
    hi = min(lo + 1, len(samples) - 1)
    frac = pos - lo
    return samples[lo] * (1.0 - frac) + samples[hi] * frac


class Counter:
    """A monotonically increasing, thread-safe counter."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = str(name)
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError("counters only increase; use a Gauge")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        """Current accumulated value."""
        with self._lock:
            return self._value

    def reset(self) -> None:
        """Zero the counter (used by tests and registry resets)."""
        with self._lock:
            self._value = 0.0

    def snapshot(self) -> dict[str, Any]:
        """JSON-able state: ``{"type": "counter", "value": …}``."""
        return {"type": "counter", "value": self.value}


class Gauge:
    """A last-value-wins instrument (queue depth, pool width, …)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = str(name)
        self._value: float | None = None
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        """Record the current value."""
        with self._lock:
            self._value = float(value)

    def add(self, delta: float) -> float:
        """Shift the value by ``delta`` (an unset gauge counts as 0).

        Returns the new value.  This makes a gauge usable as an
        up/down occupancy counter (in-flight requests, open breakers)
        without callers racing a read-modify-write around :meth:`set`.
        """
        with self._lock:
            self._value = (self._value or 0.0) + float(delta)
            return self._value

    @property
    def value(self) -> float | None:
        """Most recently set value (``None`` if never set)."""
        with self._lock:
            return self._value

    def reset(self) -> None:
        """Forget the recorded value."""
        with self._lock:
            self._value = None

    def snapshot(self) -> dict[str, Any]:
        """JSON-able state: ``{"type": "gauge", "value": …}``."""
        return {"type": "gauge", "value": self.value}


class Histogram:
    """Bounded-reservoir value distribution with quantile snapshots.

    The histogram keeps exact ``count``/``total``/``min``/``max`` over
    *all* observations and a sliding reservoir of the most recent
    ``maxlen`` samples for quantiles — the same recency semantics the
    serving engine's latency deques had, now shared by every component.
    """

    __slots__ = ("name", "_samples", "_count", "_total", "_min", "_max", "_lock")

    def __init__(self, name: str, maxlen: int = 1024) -> None:
        if maxlen < 1:
            raise ValueError("histogram reservoir must hold >= 1 sample")
        self.name = str(name)
        self._samples: deque[float] = deque(maxlen=int(maxlen))
        self._count = 0
        self._total = 0.0
        self._min: float | None = None
        self._max: float | None = None
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        with self._lock:
            self._samples.append(value)
            self._count += 1
            self._total += value
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        """Number of observations ever recorded."""
        with self._lock:
            return self._count

    @property
    def total(self) -> float:
        """Sum of every observation ever recorded."""
        with self._lock:
            return self._total

    def quantile(self, q: float) -> float | None:
        """The ``q``-th percentile (0–100) of the retained reservoir.

        Linear interpolation between closest ranks (numpy's default
        ``percentile`` method); ``None`` when no samples were recorded.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError("q must be in [0, 100]")
        with self._lock:
            samples = sorted(self._samples)
        return _interpolated_quantile(samples, q)

    def reset(self) -> None:
        """Drop every sample and zero the exact accumulators."""
        with self._lock:
            self._samples.clear()
            self._count = 0
            self._total = 0.0
            self._min = None
            self._max = None

    def absorb(self, snap: Mapping[str, Any]) -> None:
        """Fold another histogram's snapshot into this live instrument.

        Exact accumulators add; the snapshot's retained ``samples``
        (present when it was taken with ``include_samples=True``) are
        replayed into the reservoir so the parent's quantiles see the
        absorbed observations.  Used to merge process-pool workers'
        registries back into the parent (:func:`repro.utils.parallel.pmap`).
        """
        count = int(snap.get("count") or 0)
        if count == 0:
            return
        total = float(snap.get("total") or 0.0)
        lo, hi = snap.get("min"), snap.get("max")
        with self._lock:
            self._count += count
            self._total += total
            if lo is not None and (self._min is None or lo < self._min):
                self._min = float(lo)
            if hi is not None and (self._max is None or hi > self._max):
                self._max = float(hi)
            for value in snap.get("samples") or ():
                self._samples.append(float(value))

    def snapshot(self, *, include_samples: bool = False) -> dict[str, Any]:
        """JSON-able summary with count/total/mean/min/max/p50/p95/p99.

        With ``include_samples=True`` the retained reservoir is exported
        under ``"samples"`` — the form :func:`merge_snapshots` needs to
        compute honest cross-process percentiles (percentiles of pooled
        samples, not averages of per-process percentiles).
        """
        with self._lock:
            count = self._count
            total = self._total
            lo, hi = self._min, self._max
            samples = list(self._samples) if include_samples else None
        snap = {
            "type": "histogram",
            "count": count,
            "total": total,
            "mean": (total / count) if count else None,
            "min": lo,
            "max": hi,
            "p50": self.quantile(50.0),
            "p95": self.quantile(95.0),
            "p99": self.quantile(99.0),
        }
        if samples is not None:
            snap["samples"] = samples
        return snap


class MetricsRegistry:
    """A thread-safe name → instrument map with get-or-create semantics.

    Asking twice for the same name returns the same instrument; asking
    for an existing name with a different instrument type raises
    ``TypeError`` (silent aliasing would corrupt both consumers).
    :meth:`reset` zeroes every instrument *in place*, so module-level
    instrument handles stay valid across test isolation resets.
    """

    def __init__(self) -> None:
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, name: str, cls, *args):
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = cls(name, *args)
                self._instruments[name] = instrument
            elif not isinstance(instrument, cls):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(instrument).__name__}, not {cls.__name__}"
                )
            return instrument

    def counter(self, name: str) -> Counter:
        """Get or create the named :class:`Counter`."""
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        """Get or create the named :class:`Gauge`."""
        return self._get_or_create(name, Gauge)

    def histogram(self, name: str, maxlen: int = 1024) -> Histogram:
        """Get or create the named :class:`Histogram`.

        ``maxlen`` applies only on first creation.
        """
        return self._get_or_create(name, Histogram, maxlen)

    def names(self) -> list[str]:
        """Registered instrument names, sorted."""
        with self._lock:
            return sorted(self._instruments)

    def __iter__(self) -> Iterator[Counter | Gauge | Histogram]:
        """Iterate over registered instruments (name order)."""
        with self._lock:
            items = sorted(self._instruments.items())
        return iter([instrument for _, instrument in items])

    def __len__(self) -> int:
        """Number of registered instruments."""
        with self._lock:
            return len(self._instruments)

    def snapshot(
        self, *, include_samples: bool = False
    ) -> dict[str, dict[str, Any]]:
        """JSON-able snapshot of every instrument, keyed by name.

        ``include_samples=True`` asks histograms to export their
        retained reservoirs, which makes the snapshot mergeable with
        honest percentiles (see :func:`merge_snapshots`); the cluster
        front door requests this form from every worker's ``/metricz``.
        """
        out: dict[str, dict[str, Any]] = {}
        for inst in self:
            if include_samples and isinstance(inst, Histogram):
                out[inst.name] = inst.snapshot(include_samples=True)
            else:
                out[inst.name] = inst.snapshot()
        return out

    def reset(self) -> None:
        """Zero every registered instrument in place (names persist)."""
        for instrument in self:
            instrument.reset()

    def absorb(self, snapshot: Mapping[str, Mapping[str, Any]]) -> None:
        """Fold a worker process's registry snapshot into this registry.

        Counters add their values and histograms replay their exact
        accumulators and retained samples (:meth:`Histogram.absorb`).
        Gauges are skipped: a last-value instrument from an exited
        worker (queue depth, pool width) describes a process that no
        longer exists, and summing it into the parent's own gauge would
        corrupt both readings.  Unknown names are created on demand, so
        instrumentation that only ever runs in workers still surfaces.
        """
        for name, snap in snapshot.items():
            kind = snap.get("type")
            if kind == "counter":
                value = snap.get("value")
                if value:
                    self.counter(name).inc(float(value))
            elif kind == "histogram":
                self.histogram(name).absorb(snap)
            elif kind != "gauge":
                raise TypeError(
                    f"metric {name!r} has unknown snapshot type {kind!r}"
                )


def _merge_histograms(
    into: dict[str, Any], snap: Mapping[str, Any]
) -> None:
    """Fold one histogram snapshot into the running aggregate ``into``."""
    into["count"] += int(snap.get("count") or 0)
    into["total"] += float(snap.get("total") or 0.0)
    for key, pick in (("min", min), ("max", max)):
        value = snap.get(key)
        if value is not None:
            into[key] = pick(into[key], value) if into[key] is not None else value
    into["samples"].extend(snap.get("samples") or ())


def merge_snapshots(
    snapshots: Sequence[Mapping[str, Mapping[str, Any]]],
    *,
    include_samples: bool = False,
) -> dict[str, dict[str, Any]]:
    """Aggregate per-process registry snapshots into one view.

    Designed for the cluster front door: every worker process owns a
    private registry, so cross-worker ``/stats`` must merge, never
    double-count.  Per instrument type:

    - **counters** sum their values (requests served anywhere are
      requests served);
    - **gauges** sum, treating unset (``None``) as absent — the cluster
      gauges are occupancies (queue depth, in-flight requests, open
      breakers) where the fleet-wide value is the sum of the per-worker
      values.  A gauge unset in every snapshot stays ``None``;
    - **histograms** sum ``count``/``total``, recompute ``mean``, take
      the min/max envelope, and pool the reservoir samples (present when
      the snapshots were taken with ``include_samples=True``) to compute
      merged p50/p95/p99.  When no input carried samples the merged
      percentiles are ``None`` — refusing to fabricate a percentile is
      better than averaging per-worker percentiles, which is not a
      percentile of anything.

    An instrument appearing with different types across snapshots raises
    ``TypeError``.  The merged histogram keeps its pooled samples only
    when ``include_samples=True`` (so merges can themselves be merged).
    """
    merged: dict[str, dict[str, Any]] = {}
    for snapshot in snapshots:
        for name, snap in snapshot.items():
            kind = snap.get("type")
            current = merged.get(name)
            if current is None:
                if kind == "histogram":
                    merged[name] = {
                        "type": "histogram",
                        "count": 0,
                        "total": 0.0,
                        "min": None,
                        "max": None,
                        "samples": [],
                    }
                else:
                    merged[name] = {"type": kind, "value": None}
                current = merged[name]
            elif current["type"] != kind:
                raise TypeError(
                    f"metric {name!r} is a {kind!r} in one snapshot but "
                    f"a {current['type']!r} in another"
                )
            if kind == "histogram":
                _merge_histograms(current, snap)
            elif kind in ("counter", "gauge"):
                value = snap.get("value")
                if value is not None:
                    current["value"] = (current["value"] or 0.0) + value
            else:
                raise TypeError(
                    f"metric {name!r} has unknown snapshot type {kind!r}"
                )
    for name, snap in merged.items():
        if snap["type"] != "histogram":
            continue
        samples = sorted(snap.pop("samples"))
        count = snap["count"]
        snap["mean"] = (snap["total"] / count) if count else None
        snap["p50"] = _interpolated_quantile(samples, 50.0)
        snap["p95"] = _interpolated_quantile(samples, 95.0)
        snap["p99"] = _interpolated_quantile(samples, 99.0)
        if include_samples:
            snap["samples"] = samples
    return merged


_DEFAULT = MetricsRegistry()


def default_registry() -> MetricsRegistry:
    """The process-wide registry used by library instrumentation points."""
    return _DEFAULT
