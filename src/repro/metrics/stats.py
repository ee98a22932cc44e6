"""Small statistics helpers shared by experiments and reports."""

from typing import Dict, List, Sequence, Tuple


class FixedResolutionHistogram:
    """Sparse fixed-resolution histogram with exact, mergeable counts.

    The streaming fleet aggregator pre-reduces each worker chunk into
    one of these so the parent merges O(workers) histograms instead of
    sorting O(homes × routines) raw latency samples.  Bins are
    ``int(value / resolution)`` with integer counts, so merging is
    commutative, associative and byte-deterministic regardless of the
    order samples or partials arrive in.  A quantile is answered with
    the *lower edge* of the bin holding the nearest-rank sample —
    within ``resolution`` of the exact pooled value.
    """

    __slots__ = ("resolution", "bins", "count")

    def __init__(self, resolution: float = 1e-3) -> None:
        if resolution <= 0:
            raise ValueError("resolution must be positive")
        self.resolution = resolution
        self.bins: Dict[int, int] = {}
        self.count = 0

    def add(self, value: float) -> None:
        bin_index = int(value / self.resolution)
        bins = self.bins
        bins[bin_index] = bins.get(bin_index, 0) + 1
        self.count += 1

    def extend(self, values: Sequence[float]) -> None:
        resolution = self.resolution
        bins = self.bins
        for value in values:
            bin_index = int(value / resolution)
            bins[bin_index] = bins.get(bin_index, 0) + 1
        self.count += len(values)

    def merge(self, other: "FixedResolutionHistogram") -> None:
        if other.resolution != self.resolution:
            raise ValueError(
                f"cannot merge histograms of resolution "
                f"{self.resolution} and {other.resolution}")
        bins = self.bins
        for bin_index, count in other.bins.items():
            bins[bin_index] = bins.get(bin_index, 0) + count
        self.count += other.count

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile (lower bin edge), q in [0, 100]."""
        if not 0 <= q <= 100:
            raise ValueError("q must be in [0, 100]")
        if not self.count:
            return 0.0
        rank = int((self.count - 1) * q / 100.0)
        remaining = rank
        for bin_index in sorted(self.bins):
            remaining -= self.bins[bin_index]
            if remaining < 0:
                return bin_index * self.resolution
        return max(self.bins) * self.resolution   # unreachable guard


def mean(values: Sequence[float]) -> float:
    values = list(values)
    if not values:
        return 0.0
    return sum(values) / len(values)


def percentile_sorted(data: Sequence[float], q: float) -> float:
    """:func:`percentile` over *already sorted* data (no re-sort).

    Callers that need several quantiles of one sample (``summarize``,
    the fleet aggregator) sort once and fan out through this.
    """
    if not 0 <= q <= 100:
        raise ValueError("q must be in [0, 100]")
    if not data:
        return 0.0
    if len(data) == 1:
        return data[0]
    rank = (len(data) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(data) - 1)
    fraction = rank - low
    value = data[low] * (1 - fraction) + data[high] * fraction
    # Clamp: interpolation may overshoot its endpoints by an ulp.
    return min(max(value, data[low]), data[high])


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    return percentile_sorted(sorted(values), q)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50)


def cdf_points(values: Sequence[float],
               points: int = 50) -> List[Tuple[float, float]]:
    """(value, cumulative fraction) pairs for plotting a CDF."""
    data = sorted(values)
    if not data:
        return []
    n = len(data)
    step = max(1, n // points)
    out = [(data[i], (i + 1) / n) for i in range(0, n, step)]
    if out[-1][0] != data[-1]:
        out.append((data[-1], 1.0))
    return out


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Summary statistics used throughout EXPERIMENTS.md."""
    data = list(values)
    if not data:
        return {"n": 0, "mean": 0.0, "p50": 0.0, "p90": 0.0,
                "p95": 0.0, "max": 0.0}
    # Mean is summed in arrival order (float addition is order-
    # sensitive and reports are byte-stable), then one in-place sort
    # serves every quantile.
    average = mean(data)
    data.sort()
    return {
        "n": len(data),
        "mean": average,
        "p50": percentile_sorted(data, 50),
        "p90": percentile_sorted(data, 90),
        "p95": percentile_sorted(data, 95),
        "max": data[-1],
    }


def swap_distance(order: Sequence[int], reference: Sequence[int]) -> int:
    """Kendall-tau distance: adjacent swaps to turn ``reference`` into
    ``order`` (the paper's "order mismatch", §7.6).

    Elements present in only one sequence are ignored.
    """
    common = set(order) & set(reference)
    a = [x for x in order if x in common]
    rank = {x: i for i, x in enumerate(a)}
    b = [rank[x] for x in reference if x in common]
    # Inversions of b — per element, the earlier ones that are larger —
    # counted with a Fenwick tree over the ranks: O(n log n).
    size = len(a)
    tree = [0] * (size + 1)
    inversions = 0
    for larger, value in enumerate(b):   # starts as "all earlier ones"
        i = value + 1
        while i:                         # minus the earlier ones <= value
            larger -= tree[i]
            i &= i - 1
        inversions += larger
        i = value + 1
        while i <= size:
            tree[i] += 1
            i += i & -i
    return inversions


def normalized_swap_distance(order: Sequence[int],
                             reference: Sequence[int]) -> float:
    """Swap distance normalized by the worst case n·(n−1)/2 → [0, 1]."""
    common = set(order) & set(reference)
    n = len(common)
    if n < 2:
        return 0.0
    worst = n * (n - 1) / 2
    return swap_distance(order, reference) / worst
