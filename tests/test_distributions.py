"""Unit tests for value distributions."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError
from repro.sps.types import DataType
from repro.workload.datagen import random_stream_spec
from repro.workload.distributions import (
    GaussianDouble,
    StringVocabulary,
    UniformDouble,
    UniformInt,
    ZipfInt,
    default_distribution,
)


class TestUniformInt:
    dist = UniformInt(0, 9)

    def test_samples_in_range(self, rng):
        for _ in range(100):
            assert 0 <= self.dist.sample(rng) <= 9

    def test_cdf(self):
        assert self.dist.cdf(-1) == 0.0
        assert self.dist.cdf(0) == pytest.approx(0.1)
        assert self.dist.cdf(4) == pytest.approx(0.5)
        assert self.dist.cdf(9) == 1.0

    def test_point_mass(self):
        assert self.dist.point_mass(3) == pytest.approx(0.1)
        assert self.dist.point_mass(3.5) == 0.0
        assert self.dist.point_mass(99) == 0.0

    def test_quantile_inverts_cdf(self):
        for q in (0.1, 0.25, 0.5, 0.9, 1.0):
            value = self.dist.quantile(q)
            assert self.dist.cdf(value) >= q - 1e-9

    def test_invalid_range(self):
        with pytest.raises(ConfigurationError):
            UniformInt(5, 4)


class TestUniformDouble:
    dist = UniformDouble(2.0, 4.0)

    def test_cdf_linear(self):
        assert self.dist.cdf(2.0) == 0.0
        assert self.dist.cdf(3.0) == pytest.approx(0.5)
        assert self.dist.cdf(4.0) == 1.0

    def test_quantile(self):
        assert self.dist.quantile(0.25) == pytest.approx(2.5)

    def test_point_mass_zero(self):
        assert self.dist.point_mass(3.0) == 0.0

    def test_samples_in_range(self, rng):
        samples = [self.dist.sample(rng) for _ in range(200)]
        assert all(2.0 <= s < 4.0 for s in samples)


class TestGaussianDouble:
    dist = GaussianDouble(10.0, 2.0)

    def test_cdf_at_mean(self):
        assert self.dist.cdf(10.0) == pytest.approx(0.5)

    def test_quantile_inverts_cdf(self):
        for q in (0.05, 0.3, 0.5, 0.8, 0.99):
            assert self.dist.cdf(self.dist.quantile(q)) == pytest.approx(
                q, abs=1e-6
            )

    def test_invalid_std(self):
        with pytest.raises(ConfigurationError):
            GaussianDouble(0.0, 0.0)


class TestZipfInt:
    dist = ZipfInt(n=50, s=1.2)

    def test_pmf_sums_to_one(self):
        total = sum(self.dist.point_mass(k) for k in range(1, 51))
        assert total == pytest.approx(1.0)

    def test_skew(self):
        assert self.dist.point_mass(1) > 5 * self.dist.point_mass(20)

    def test_cdf_monotone(self):
        values = [self.dist.cdf(k) for k in range(1, 51)]
        assert values == sorted(values)
        assert values[-1] == pytest.approx(1.0)

    def test_quantile(self):
        assert self.dist.quantile(0.0) == 1
        assert self.dist.quantile(1.0) == 50

    def test_samples_in_support(self, rng):
        for _ in range(100):
            assert 1 <= self.dist.sample(rng) <= 50


class TestStringVocabulary:
    dist = StringVocabulary(("apple", "apricot", "banana", "cherry"))

    def test_uniform_point_mass(self):
        assert self.dist.point_mass("apple") == pytest.approx(0.25)
        assert self.dist.point_mass("durian") == 0.0

    def test_prefix_mass(self):
        assert self.dist.prefix_mass("ap") == pytest.approx(0.5)
        assert self.dist.prefix_mass("z") == 0.0

    def test_suffix_and_substring_mass(self):
        assert self.dist.suffix_mass("ana") == pytest.approx(0.25)
        assert self.dist.substring_mass("an") == pytest.approx(0.25)

    def test_lexicographic_cdf(self):
        assert self.dist.cdf("a") == 0.0
        assert self.dist.cdf("apple") == pytest.approx(0.25)
        assert self.dist.cdf("zzz") == 1.0

    def test_weighted(self):
        weighted = StringVocabulary(
            ("a", "b"), weights=(3.0, 1.0)
        )
        assert weighted.point_mass("a") == pytest.approx(0.75)

    def test_invalid_vocab(self):
        with pytest.raises(ConfigurationError):
            StringVocabulary(())
        with pytest.raises(ConfigurationError):
            StringVocabulary(("a", "a"))
        with pytest.raises(ConfigurationError):
            StringVocabulary(("a", "b"), weights=(1.0,))

    def test_samples_from_vocab(self, rng):
        for _ in range(50):
            assert self.dist.sample(rng) in self.dist.words


class TestDefaultDistribution:
    def test_types_match(self, rng):
        for dtype in DataType:
            dist = default_distribution(dtype, rng)
            assert dist.dtype is dtype

    def test_randomised_parameters(self, rng):
        descriptions = {
            default_distribution(DataType.INT, rng).describe()
            for _ in range(20)
        }
        assert len(descriptions) > 1


def _assert_replays(dist, reference, seed, draws=200):
    """``dist.sample`` matches ``reference`` draw for draw, and leaves
    the generator in the same state (the next ``random()`` agrees)."""
    fast = np.random.default_rng(seed)
    slow = np.random.default_rng(seed)
    got = [dist.sample(fast) for _ in range(draws)]
    want = [reference(slow) for _ in range(draws)]
    assert got == want
    assert fast.random() == slow.random()


seeds = st.integers(min_value=0, max_value=2**32 - 1)
finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
positive = st.floats(min_value=1e-3, max_value=1e4)


class TestSamplingContract:
    """Every ``sample`` consumes the RNG exactly as its numpy reference."""

    @given(seed=seeds, n=st.integers(1, 400), s=st.floats(0.1, 3.0))
    @settings(max_examples=40, deadline=None)
    def test_zipf_matches_choice(self, seed, n, s):
        weights = np.arange(1, n + 1, dtype=float) ** (-s)
        pmf = weights / weights.sum()
        _assert_replays(
            ZipfInt(n=n, s=s),
            lambda rng: int(rng.choice(n, p=pmf)) + 1,
            seed,
        )

    @given(
        seed=seeds,
        weights=st.lists(
            st.one_of(st.just(0.0), st.floats(1e-6, 1e3)),
            min_size=1,
            max_size=60,
        ).filter(lambda ws: sum(ws) > 0),
    )
    @settings(max_examples=40, deadline=None)
    def test_vocabulary_matches_choice(self, seed, weights):
        words = tuple(f"w{i}" for i in range(len(weights)))
        arr = np.asarray(weights, dtype=float)
        pmf = arr / arr.sum()
        _assert_replays(
            StringVocabulary(words, weights=tuple(weights)),
            lambda rng: words[int(rng.choice(len(words), p=pmf))],
            seed,
        )

    @given(seed=seeds, lo=finite, width=positive)
    @settings(max_examples=40, deadline=None)
    def test_uniform_double_matches_uniform(self, seed, lo, width):
        hi = lo + width
        _assert_replays(
            UniformDouble(lo, hi),
            lambda rng: float(rng.uniform(lo, hi)),
            seed,
        )

    @given(seed=seeds, mean=finite, std=positive)
    @settings(max_examples=40, deadline=None)
    def test_gaussian_matches_normal(self, seed, mean, std):
        _assert_replays(
            GaussianDouble(mean, std),
            lambda rng: float(rng.normal(mean, std)),
            seed,
        )

    @pytest.mark.parametrize(
        "weights", [(0.0, 1.0, 0.0, 2.0), (1.0, 0.0, 0.0), (0.0, 0.0, 5.0)]
    )
    def test_zero_weights(self, weights):
        words = ("a", "b", "c", "d")[: len(weights)]
        pmf = np.asarray(weights) / sum(weights)
        dist = StringVocabulary(words, weights=weights)
        _assert_replays(
            dist, lambda rng: words[int(rng.choice(len(words), p=pmf))], 7
        )
        rng = np.random.default_rng(7)
        drawn = {dist.sample(rng) for _ in range(500)}
        assert all(dist.point_mass(word) > 0 for word in drawn)

    def test_single_word_vocabulary(self):
        dist = StringVocabulary(("only",))
        pmf = np.ones(1)
        _assert_replays(
            dist, lambda rng: ("only",)[int(rng.choice(1, p=pmf))], 3
        )
        assert dist.sample(np.random.default_rng(3)) == "only"

    def test_zipf_single_value(self):
        pmf = np.ones(1)
        _assert_replays(
            ZipfInt(n=1), lambda rng: int(rng.choice(1, p=pmf)) + 1, 5
        )

    def test_uniform_double_negative_range(self):
        _assert_replays(
            UniformDouble(-5.0, -1.25),
            lambda rng: float(rng.uniform(-5.0, -1.25)),
            11,
        )


#: SHA-256 over ``repr`` of the first 2,000 tuples' values that
#: ``random_stream_spec("s", default_rng(seed)).generator()`` yields when
#: fed the same generator. Pinned from the ``rng.choice`` / ``uniform`` /
#: ``normal`` samplers, so any drift in how sources consume the RNG fails.
STREAM_DIGESTS = {
    # all five distributions, 13 fields
    0: "7b23abbb94b488da879df3690f3b0d293cc312fedcc5b94325e8538963dcf4c9",
    # narrow: uniform int key, zipf, uniform double
    11: "08eb47ec8023552b5787df2d858196959865f87369453950dc7d27df93be4b7f",
    # gaussian + zipf + strings, no uniform double
    25: "0f95b39852dbded4f2c664eb5e7d1ba94eac4d4c70ef335b1087ca30e0e7a17e",
}


@pytest.mark.parametrize("seed", sorted(STREAM_DIGESTS))
def test_stream_generator_digest(seed):
    rng = np.random.default_rng(seed)
    generate = random_stream_spec("s", rng).generator()
    digest = hashlib.sha256()
    for i in range(2000):
        digest.update(repr(generate(rng, float(i)).values).encode())
    assert digest.hexdigest() == STREAM_DIGESTS[seed]
