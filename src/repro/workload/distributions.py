"""Value distributions for synthetic data streams.

The paper generates synthetic data by *domain randomization* — randomly
varying tuple width, per-item data types and event rates — and models value
skew with distributions like Zipf. Each distribution here can both sample
values and answer the probability questions the selectivity estimator needs
(CDF, point mass, quantile), which is how generated filters keep their
selectivity inside a valid band (Section 3.1).

Sampling contract: every ``sample`` consumes the generator exactly as its
numpy reference call does and returns the same value, so seeded streams
and every golden built on them stay bit-identical:

* ``ZipfInt`` / ``StringVocabulary``: ``rng.choice(n, p=pmf)``
* ``UniformDouble``: ``rng.uniform(lo, hi)``
* ``GaussianDouble``: ``rng.normal(mean, std)``
* ``UniformInt``: ``rng.integers(lo, hi + 1)`` (called directly)

The reference calls re-validate their arguments on every draw, which
dominated source generation. The samplers therefore precompute what the
reference recomputes — ``choice``'s normalised cumulative table, the
uniform span — and repeat only its arithmetic on one scalar draw. They
are deliberately not vectorised: numpy's array draws consume the bit
stream differently from a sequence of scalar draws.
"""

from __future__ import annotations

import bisect
import functools
import math

import numpy as np

from repro.common.errors import ConfigurationError
from repro.sps.types import DataType

__all__ = [
    "ValueDistribution",
    "UniformInt",
    "UniformDouble",
    "GaussianDouble",
    "ZipfInt",
    "StringVocabulary",
    "default_distribution",
]


class ValueDistribution:
    """Base class: a typed value source with probability queries."""

    dtype: DataType

    def sample(self, rng: np.random.Generator):
        """Draw one value."""
        raise NotImplementedError

    def cdf(self, value) -> float:
        """P(X <= value)."""
        raise NotImplementedError

    def point_mass(self, value) -> float:
        """P(X == value) (0 for continuous distributions)."""
        raise NotImplementedError

    def quantile(self, q: float):
        """Smallest value v with cdf(v) >= q."""
        raise NotImplementedError

    def describe(self) -> str:
        """Short label for logs and stored workload records."""
        raise NotImplementedError


@functools.lru_cache(maxsize=256)
def _choice_table(pmf: bytes) -> tuple[float, ...]:
    """The cumulative table ``Generator.choice(n, p=pmf)`` draws against.

    ``choice`` normalises ``pmf.cumsum()`` by its last entry and returns
    ``searchsorted(table, rng.random(), side="right")``; ``bisect_right``
    on this tuple repeats that lookup on the same single draw. Keyed by
    the float64 pmf's bytes, so distributions with the same weights (a
    generated workload holds hundreds of default vocabularies) share one
    table.
    """
    table = np.frombuffer(pmf).cumsum()
    table /= table[-1]
    return tuple(table.tolist())


def _check_q(q: float) -> None:
    if not 0.0 <= q <= 1.0:
        raise ConfigurationError(f"quantile must be in [0, 1], got {q}")


class UniformInt(ValueDistribution):
    """Integers uniform on [lo, hi] inclusive."""

    dtype = DataType.INT

    def __init__(self, lo: int = 0, hi: int = 999) -> None:
        if hi < lo:
            raise ConfigurationError(f"need lo <= hi, got [{lo}, {hi}]")
        self.lo = int(lo)
        self.hi = int(hi)

    @property
    def _n(self) -> int:
        return self.hi - self.lo + 1

    def sample(self, rng: np.random.Generator) -> int:
        return int(rng.integers(self.lo, self.hi + 1))

    def cdf(self, value) -> float:
        if value < self.lo:
            return 0.0
        if value >= self.hi:
            return 1.0
        return (math.floor(value) - self.lo + 1) / self._n

    def point_mass(self, value) -> float:
        if self.lo <= value <= self.hi and float(value).is_integer():
            return 1.0 / self._n
        return 0.0

    def quantile(self, q: float) -> int:
        _check_q(q)
        return min(self.lo + math.ceil(q * self._n) - 1, self.hi)

    def describe(self) -> str:
        return f"uniform-int[{self.lo},{self.hi}]"


class UniformDouble(ValueDistribution):
    """Doubles uniform on [lo, hi)."""

    dtype = DataType.DOUBLE

    def __init__(self, lo: float = 0.0, hi: float = 1.0) -> None:
        if hi <= lo:
            raise ConfigurationError(f"need lo < hi, got [{lo}, {hi})")
        self.lo = float(lo)
        self.hi = float(hi)
        self._span = self.hi - self.lo

    def sample(self, rng: np.random.Generator) -> float:
        return self.lo + self._span * rng.random()

    def cdf(self, value) -> float:
        if value <= self.lo:
            return 0.0
        if value >= self.hi:
            return 1.0
        return (value - self.lo) / (self.hi - self.lo)

    def point_mass(self, value) -> float:
        return 0.0

    def quantile(self, q: float) -> float:
        _check_q(q)
        return self.lo + q * (self.hi - self.lo)

    def describe(self) -> str:
        return f"uniform-double[{self.lo:g},{self.hi:g})"


class GaussianDouble(ValueDistribution):
    """Normally distributed doubles."""

    dtype = DataType.DOUBLE

    def __init__(self, mean: float = 0.0, std: float = 1.0) -> None:
        if std <= 0:
            raise ConfigurationError("std must be positive")
        self.mean = float(mean)
        self.std = float(std)

    def sample(self, rng: np.random.Generator) -> float:
        return self.mean + self.std * rng.standard_normal()

    def cdf(self, value) -> float:
        z = (value - self.mean) / (self.std * math.sqrt(2.0))
        return 0.5 * (1.0 + math.erf(z))

    def point_mass(self, value) -> float:
        return 0.0

    def quantile(self, q: float) -> float:
        _check_q(q)
        # Acklam-style rational approximation via scipy would also work;
        # binary search keeps dependencies local and is exact enough here.
        lo = self.mean - 10 * self.std
        hi = self.mean + 10 * self.std
        for _ in range(80):
            mid = (lo + hi) / 2.0
            if self.cdf(mid) < q:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2.0

    def describe(self) -> str:
        return f"gaussian({self.mean:g},{self.std:g})"


class ZipfInt(ValueDistribution):
    """Zipf-skewed integers 1..n with exponent s (Table 3's zipf option)."""

    dtype = DataType.INT

    def __init__(self, n: int = 100, s: float = 1.1) -> None:
        if n < 1:
            raise ConfigurationError("n must be >= 1")
        if s <= 0:
            raise ConfigurationError("exponent must be positive")
        self.n = int(n)
        self.s = float(s)
        weights = np.arange(1, self.n + 1, dtype=float) ** (-self.s)
        self._pmf = weights / weights.sum()
        self._cdf = np.cumsum(self._pmf)
        self._draw_table = _choice_table(self._pmf.tobytes())

    def sample(self, rng: np.random.Generator) -> int:
        return bisect.bisect_right(self._draw_table, rng.random()) + 1

    def cdf(self, value) -> float:
        if value < 1:
            return 0.0
        if value >= self.n:
            return 1.0
        return float(self._cdf[int(math.floor(value)) - 1])

    def point_mass(self, value) -> float:
        if 1 <= value <= self.n and float(value).is_integer():
            return float(self._pmf[int(value) - 1])
        return 0.0

    def quantile(self, q: float) -> int:
        _check_q(q)
        index = int(np.searchsorted(self._cdf, q, side="left"))
        return min(index, self.n - 1) + 1

    def describe(self) -> str:
        return f"zipf(n={self.n},s={self.s:g})"


#: Default vocabulary for string fields: short tokens with a shared prefix
#: structure so prefix filters have tunable selectivity.
_DEFAULT_WORDS = tuple(
    f"{prefix}{suffix:02d}"
    for prefix in ("alpha", "beta", "gamma", "delta", "epsilon")
    for suffix in range(20)
)


class StringVocabulary(ValueDistribution):
    """Categorical strings with optional weights."""

    dtype = DataType.STRING

    def __init__(
        self,
        words: tuple[str, ...] = _DEFAULT_WORDS,
        weights: tuple[float, ...] | None = None,
    ) -> None:
        if not words:
            raise ConfigurationError("vocabulary must be non-empty")
        if len(set(words)) != len(words):
            raise ConfigurationError("vocabulary words must be unique")
        self.words = tuple(words)
        if weights is None:
            probabilities = np.full(len(words), 1.0 / len(words))
        else:
            if len(weights) != len(words):
                raise ConfigurationError("weights must match words")
            arr = np.asarray(weights, dtype=float)
            if (arr < 0).any() or arr.sum() <= 0:
                raise ConfigurationError("weights must be non-negative")
            probabilities = arr / arr.sum()
        self._pmf = probabilities
        order = sorted(range(len(words)), key=lambda i: words[i])
        self._sorted_words = [words[i] for i in order]
        self._sorted_cdf = np.cumsum([probabilities[i] for i in order])
        self._draw_table = _choice_table(probabilities.tobytes())

    def sample(self, rng: np.random.Generator) -> str:
        return self.words[bisect.bisect_right(self._draw_table, rng.random())]

    def cdf(self, value) -> float:
        """Lexicographic CDF: P(word <= value)."""
        idx = bisect.bisect_right(self._sorted_words, value)
        if idx == 0:
            return 0.0
        return float(self._sorted_cdf[idx - 1])

    def point_mass(self, value) -> float:
        try:
            return float(self._pmf[self.words.index(value)])
        except ValueError:
            return 0.0

    def quantile(self, q: float) -> str:
        _check_q(q)
        idx = int(np.searchsorted(self._sorted_cdf, q, side="left"))
        return self._sorted_words[min(idx, len(self._sorted_words) - 1)]

    def prefix_mass(self, prefix: str) -> float:
        """P(word startswith prefix) — selectivity of a prefix filter."""
        return float(
            sum(
                p
                for word, p in zip(self.words, self._pmf)
                if word.startswith(prefix)
            )
        )

    def substring_mass(self, needle: str) -> float:
        """P(needle in word) — selectivity of a contains filter."""
        return float(
            sum(
                p
                for word, p in zip(self.words, self._pmf)
                if needle in word
            )
        )

    def suffix_mass(self, suffix: str) -> float:
        """P(word endswith suffix) — selectivity of an endswith filter."""
        return float(
            sum(
                p
                for word, p in zip(self.words, self._pmf)
                if word.endswith(suffix)
            )
        )

    def describe(self) -> str:
        return f"vocab({len(self.words)} words)"


def default_distribution(
    dtype: DataType, rng: np.random.Generator
) -> ValueDistribution:
    """A randomly parameterised distribution for a field of the given type."""
    if dtype is DataType.INT:
        if rng.random() < 0.3:
            return ZipfInt(n=int(rng.integers(20, 200)), s=1.1)
        hi = int(rng.integers(10, 10_000))
        return UniformInt(0, hi)
    if dtype is DataType.DOUBLE:
        if rng.random() < 0.3:
            return GaussianDouble(
                mean=float(rng.uniform(-10, 10)),
                std=float(rng.uniform(0.5, 5.0)),
            )
        return UniformDouble(0.0, float(rng.uniform(1.0, 1000.0)))
    return StringVocabulary()
