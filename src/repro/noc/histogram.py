"""Bounded streaming histogram for latency distributions.

Latency tails matter (p95/p99 distinguish a congested network from a merely
busy one) but storing every sample is out of the question for
production-scale runs.  :class:`StreamingHistogram` keeps exact counts for
small values — one bucket per cycle up to ``linear_limit`` — and one
power-of-two bucket per octave beyond it, so memory is bounded by
``linear_limit + log2(max_value)`` buckets regardless of sample count.
Percentiles are exact below ``linear_limit`` (which covers every sane
latency) and bucket-resolution above it (which only matters once the
network has already saturated).

The counts live in a sparse dict, so an idle class costs nothing, and the
whole structure supports ``merge`` (sliced double networks) and ``delta``
(measurement-window percentiles from before/after snapshots).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

#: Default boundary between exact 1-cycle buckets and power-of-two buckets.
DEFAULT_LINEAR_LIMIT = 4096


class StreamingHistogram:
    """Histogram over non-negative integer samples with bounded memory."""

    __slots__ = ("linear_limit", "counts", "total", "_min", "_max")

    def __init__(self, linear_limit: int = DEFAULT_LINEAR_LIMIT) -> None:
        if linear_limit < 1:
            raise ValueError("linear_limit must be >= 1")
        self.linear_limit = linear_limit
        #: bucket id -> count.  Ids >= 0 are exact values below
        #: ``linear_limit``; id ``-n`` is the power-of-two bucket holding
        #: values with bit length ``n`` (i.e. ``[2**(n-1), 2**n)``).
        self.counts: Dict[int, int] = {}
        self.total = 0
        self._min: Optional[int] = None
        self._max: Optional[int] = None

    # -- recording -----------------------------------------------------------

    def add(self, value: int, count: int = 1) -> None:
        if value < 0:
            raise ValueError(f"histogram samples must be >= 0, got {value}")
        bucket = value if value < self.linear_limit else -value.bit_length()
        self.counts[bucket] = self.counts.get(bucket, 0) + count
        self.total += count
        if self._min is None or value < self._min:
            self._min = value
        if self._max is None or value > self._max:
            self._max = value

    def merge(self, other: "StreamingHistogram") -> None:
        """Fold ``other``'s samples into this histogram (exact)."""
        if other.linear_limit != self.linear_limit:
            raise ValueError("cannot merge histograms with different "
                             "linear limits")
        for bucket, count in other.counts.items():
            self.counts[bucket] = self.counts.get(bucket, 0) + count
        self.total += other.total
        if other._min is not None and (self._min is None
                                       or other._min < self._min):
            self._min = other._min
        if other._max is not None and (self._max is None
                                       or other._max > self._max):
            self._max = other._max

    def delta(self, before: "StreamingHistogram") -> "StreamingHistogram":
        """Samples added since ``before`` (a prior snapshot of this
        histogram).  Min/max of the delta are bucket-resolution: exact below
        ``linear_limit``, bucket lower bounds beyond it."""
        if before.linear_limit != self.linear_limit:
            raise ValueError("snapshot has a different linear limit")
        diff = StreamingHistogram(self.linear_limit)
        for bucket, count in self.counts.items():
            remaining = count - before.counts.get(bucket, 0)
            if remaining < 0:
                raise ValueError("delta against a later snapshot")
            if remaining:
                diff.counts[bucket] = remaining
        diff.total = self.total - before.total
        if diff.total < 0:
            raise ValueError("delta against a later snapshot")
        values = [self._bucket_value(b) for b in diff.counts]
        diff._min = min(values) if values else None
        diff._max = max(values) if values else None
        return diff

    # -- queries -------------------------------------------------------------

    def _bucket_value(self, bucket: int) -> int:
        """Representative (lower-bound) value of a bucket."""
        return bucket if bucket >= 0 else 1 << (-bucket - 1)

    def _sorted_buckets(self) -> List[Tuple[int, int]]:
        """(representative value, count) in ascending value order."""
        return sorted(((self._bucket_value(b), c)
                       for b, c in self.counts.items()))

    @property
    def min(self) -> int:
        return self._min if self._min is not None else 0

    @property
    def max(self) -> int:
        return self._max if self._max is not None else 0

    def percentile(self, p: float) -> int:
        """Smallest bucket value covering the ``p``-th percentile
        (``0 < p <= 100``); 0 for an empty histogram."""
        if not 0.0 < p <= 100.0:
            raise ValueError(f"percentile must be in (0, 100], got {p}")
        if not self.total:
            return 0
        # ceil(total * p / 100) in exact integer arithmetic: expanding p
        # into its integer numerator/denominator keeps bucket-boundary
        # ranks exact where float multiplication would round (e.g. p50 of
        # 2**53 + 1 samples lands one rank low in binary64).
        num, den = p.as_integer_ratio()
        rank = max(1, -(-self.total * num // (100 * den)))
        cumulative = 0
        for value, count in self._sorted_buckets():
            cumulative += count
            if cumulative >= rank:
                return value
        return self.max  # unreachable; defensive

    def mean(self) -> float:
        """Bucket-resolution mean (exact below ``linear_limit``)."""
        if not self.total:
            return 0.0
        return sum(v * c for v, c in self._sorted_buckets()) / self.total

    def summary(self) -> Dict[str, float]:
        """The tail statistics surfaced in results and CLI output."""
        if not self.total:
            return {"count": 0, "min": 0.0, "max": 0.0,
                    "p50": 0.0, "p95": 0.0, "p99": 0.0}
        return {
            "count": self.total,
            "min": float(self.min),
            "max": float(self.max),
            "p50": float(self.percentile(50)),
            "p95": float(self.percentile(95)),
            "p99": float(self.percentile(99)),
        }

    def to_json(self) -> dict:
        """JSON-compatible dict (sorted sparse buckets)."""
        return {
            "linear_limit": self.linear_limit,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "buckets": [[v, c] for v, c in self._sorted_buckets()],
        }

    def __len__(self) -> int:
        return len(self.counts)

    def __repr__(self) -> str:
        return (f"StreamingHistogram(total={self.total}, min={self.min}, "
                f"max={self.max}, buckets={len(self.counts)})")


def merge_histograms(histograms: Iterable[StreamingHistogram]
                     ) -> StreamingHistogram:
    """A fresh histogram holding the union of all samples."""
    merged: Optional[StreamingHistogram] = None
    for histogram in histograms:
        if merged is None:
            merged = StreamingHistogram(histogram.linear_limit)
        merged.merge(histogram)
    return merged if merged is not None else StreamingHistogram()
