"""Seeded randomness: stream derivation, paths, and their statistics.

The stream-seed test reimplements the mixing recipe from its published
description as an independent oracle, then also checks pinned vectors so
a simultaneous bug in both implementations cannot slip through.
"""

import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from thirdrule import (
    DomainError,
    Money,
    PathConfig,
    ValidationError,
    derive_stream_seed,
    derive_trial_rng,
    income_levels,
    mix_correlated,
    simulate_income_path,
    simulate_savings_path,
)
from thirdrule import stochastic
from thirdrule.domain import MAX_CENTS
from thirdrule.stochastic import MAX_STEPS

MASK = (1 << 64) - 1


def correlated_normal_pair(rho, rng):
    """Draw (z1, z2) standard normal with corr(z1, z2) = rho."""
    z = rng.standard_normal(2)
    return float(z[0]), float(mix_correlated(rho, z[0], z[1]))


def _reference_stream_seed(master_seed: int, trial_index: int) -> int:
    """Independent transcription of the 64-bit mix: add (k+1) odd
    increments of the golden-ratio constant, then two xor-multiply
    rounds and a final xor-shift."""
    z = (master_seed + (trial_index + 1) * 0x9E3779B97F4A7C15) & MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


class TestStreamSeeds:
    def test_against_reference_reimplementation(self):
        for master in (0, 1, 42, 123456789, MASK, 2**63):
            for k in range(20):
                assert derive_stream_seed(master, k) == _reference_stream_seed(master, k)

    def test_pinned_vectors(self):
        # first entry is the published first output of the mix at seed 0
        assert derive_stream_seed(0, 0) == 0xE220A8397B1DCDAF
        assert derive_stream_seed(0, 1) == 0x6E789E6AA1B965F4
        assert derive_stream_seed(0, 2) == 0x06C45D188009454F
        assert derive_stream_seed(42, 0) == 0xBDD732262FEB6E95
        assert derive_stream_seed(42, 7) == 0xCCF635EE9E9E2FA4
        assert derive_stream_seed(MASK, 0) == 0xE4D971771B652C20
        assert derive_stream_seed(123456789, 3) == 0x851E061616A5BEE5

    def test_streams_are_distinct(self):
        seeds = {derive_stream_seed(99, k) for k in range(10000)}
        assert len(seeds) == 10000

    def test_validation(self):
        with pytest.raises(ValidationError):
            derive_stream_seed(-1, 0)
        with pytest.raises(ValidationError):
            derive_stream_seed(0, -1)
        with pytest.raises(ValidationError):
            derive_stream_seed(1 << 64, 0)

    def test_trial_rng_reproducible(self):
        a = derive_trial_rng(7, 3).standard_normal(16)
        b = derive_trial_rng(7, 3).standard_normal(16)
        c = derive_trial_rng(7, 4).standard_normal(16)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


# First 4 raw PCG64 words and first 8 standard normals of derive_trial_rng(s, k),
# pinned from numpy 2.4.6.  Report bytes rest on numpy's SeedSequence, PCG64 and
# Generator.standard_normal as well as on derive_stream_seed.  NEP 19 keeps bit
# generator streams stable but lets distribution methods change between
# releases.  (k + 1) * 0x9E3779B97F4A7C15 wraps mod 2**64, so k = 2**64 draws
# what k = 0 draws.
PINNED_DRAWS = {
    (0, 0): (
        (0x3eb17bf403a9949d, 0xb29e6165e60fb056, 0xf04a5c927fccf602, 0xddef2203f5b37358),
        ("0x1.ab0b04553c68ap+0", "0x1.752a7bb953769p-1", "0x1.2a5ce5e44cceep-3",
         "-0x1.2f422caefdf14p+0", "-0x1.af220d9d2162dp-2", "-0x1.c14345ec642c8p-1",
         "0x1.cbf6addeafd69p-5", "0x1.2e7b2914927bdp-1"),
    ),
    (0, 255): (
        (0x38835f26f618476f, 0x264e0473239cd1eb, 0x0a1ede5b1464892b, 0x9f47069e1e328e0a),
        ("-0x1.16b1acb240c00p+0", "-0x1.0539ee3327fa7p-1", "-0x1.2c726f29e924dp-2",
         "0x1.09300367ffcfbp-1", "0x1.d59ec2c592d7dp-2", "-0x1.40a231b0a73c1p-1",
         "-0x1.5d2c902121ed6p-4", "-0x1.76300645a76eap-1"),
    ),
    (0, 256): (
        (0xde027f8761599e0d, 0x93dab85d028e8d79, 0x7cb2270859d70502, 0x3c7ea9cf2108584e),
        ("0x1.18b5135f5d598p-1", "-0x1.d8ba6346c74f2p-1", "-0x1.06c907a82af98p-2",
         "-0x1.35aaa3344ef00p+0", "0x1.aa1927d3b0906p-5", "-0x1.2fd3d5479124fp-3",
         "-0x1.c93b8c2489d3ep+0", "0x1.61e9bad8bc2c6p-2"),
    ),
    (2**32 - 1, 0): (
        (0x9269d3e67b86ea55, 0x3da4142ff38ac795, 0xa6fd4af3bc249a59, 0x180b2cf7aed0c933),
        ("0x1.6f06d7a6b64f5p-1", "-0x1.8ea162349a9fdp+0", "0x1.1cc33c39aa2c2p-2",
         "-0x1.7ed5dbb1d7ab9p-1", "-0x1.836cfa658fd1bp-1", "-0x1.af226177bdf00p-1",
         "0x1.14f8248c3712bp-2", "0x1.50f34ab356afep-1"),
    ),
    (2**32 - 1, 255): (
        (0x461a8424dff3d6a6, 0x32dad2685eaadb53, 0xb44b269081bd867e, 0x7920b9efbabb9277),
        ("0x1.60edaa6419df6p-2", "-0x1.73a995e28ccafp-1", "0x1.ee1fef5fe567ep-1",
         "0x1.2871e2bdf83d5p+0", "0x1.459f84b120624p+1", "0x1.7a3c29d8f963cp-3",
         "0x1.7240ac15668eep+1", "-0x1.c72724486da7ep-4"),
    ),
    (2**32 - 1, 256): (
        (0xab016f33bd685ea6, 0x514dc8b5336aa938, 0xba6eb22b1af13b97, 0xc7d25b3c8ddaadca),
        ("0x1.3e30847a6ae05p-1", "-0x1.1e9016eaf1f66p-1", "-0x1.6683c3a3a2858p+0",
         "-0x1.09d0d39e23462p-1", "-0x1.77acc807f6176p-1", "-0x1.a92c48b8e7a53p-2",
         "-0x1.6bb81976e0c74p-2", "0x1.d5bb2e46599c9p-1"),
    ),
    (2**32, 0): (
        (0xdc754e47321c9d45, 0x861d5b7a60bcf8a3, 0x4552e2944e763441, 0x09c66f01bfac7101),
        ("-0x1.01ecb8ea3592dp+0", "0x1.5d14ce3f95d3dp-2", "0x1.780007f27807fp-3",
         "-0x1.0d50748e99cb8p-4", "0x1.9d2bba32eb44bp-4", "0x1.4569eb30630c2p+0",
         "0x1.0df2d76682c85p-2", "0x1.1391e15b57e94p-3"),
    ),
    (2**32, 255): (
        (0xaf78f953d24e6441, 0x238b105e6e7c9898, 0xc44c9a18bc8625de, 0x1e5e13c51f14d902),
        ("0x1.113198e5f5095p-1", "0x1.821a3654b6a99p-3", "-0x1.45891f7f8c66bp-2",
         "0x1.06d2d6d6c5a90p+0", "-0x1.76915f09df568p-4", "0x1.9b39c0a04d8f8p-2",
         "-0x1.8a866f75125f1p+0", "0x1.c9b8adbaa456ap-6"),
    ),
    (2**32, 256): (
        (0xd2eb40d2c1c0809f, 0xac8e6e04234f8716, 0x7c6b63dc14456935, 0x58f965b4f6c2ba9f),
        ("0x1.097792a8a52aap+0", "-0x1.1e9243e5476dcp-2", "-0x1.cbd8bfc4f16c0p-1",
         "0x1.5e6ee37593528p+0", "-0x1.bb3ea2c2ab02cp-1", "0x1.44ba047540752p-1",
         "-0x1.4af92ccd1c970p+0", "-0x1.f555f53a90c53p-1"),
    ),
    (2**64 - 1, 0): (
        (0xf864c0621d944054, 0x5d86245ef54ff552, 0xe4aba1403653b1e0, 0xbe20abd09a1d1aa8),
        ("0x1.e389c059688b8p-1", "-0x1.2159b43c10917p+0", "-0x1.660d819fe3a7ap-2",
         "0x1.b7412caad45d4p+0", "-0x1.ade446933f6abp+0", "0x1.bce30b379c41ep-1",
         "-0x1.95067b2fd0e6ep-2", "0x1.7321d4f9aa1dfp-2"),
    ),
    (2**64 - 1, 255): (
        (0x4adee31dba02f53c, 0x8345df5f3c252f6d, 0x4971335760d28802, 0x0b78269b7373a990),
        ("-0x1.72cd46ce76340p-2", "-0x1.26e27b3681e4bp-3", "0x1.59dee594c1537p-4",
         "-0x1.2dfd10249123cp-1", "-0x1.d899f62f5d6a0p-2", "-0x1.4d40c588cb17dp+0",
         "-0x1.c7d6771c5a643p-5", "-0x1.514849a70ada3p+0"),
    ),
    (2**64 - 1, 256): (
        (0x1a44ca5cf7b3c711, 0x315367d495b52b8e, 0xdc74584f2ffc57b0, 0xfac188137640d0cb),
        ("-0x1.0fce4a7f29367p-1", "-0x1.c44d2b5fee173p-1", "-0x1.ad661de07df5dp+0",
         "0x1.c8e1e5fb2e7e3p+0", "0x1.dec461bcfd980p-4", "-0x1.c3d8ef569682bp-2",
         "-0x1.a1b10bc213667p-5", "0x1.ca761e63d4cabp-2"),
    ),
}


EDGE_SEEDS = (0, 2**32 - 1, 2**32, 2**64 - 1)
EDGE_TRIALS = (0, 255, 256, 2**64)


@pytest.mark.parametrize("master_seed", EDGE_SEEDS)
@pytest.mark.parametrize("trial_index", EDGE_TRIALS)
def test_pinned_draws(master_seed, trial_index):
    words, normals = PINNED_DRAWS[master_seed, trial_index % 2**64]
    raw = derive_trial_rng(master_seed, trial_index).bit_generator.random_raw(4)
    drawn = derive_trial_rng(master_seed, trial_index).standard_normal(8)
    hint = (
        f"numpy {np.__version__} draws differently for (master_seed={master_seed:#x}, "
        f"trial_index={trial_index:#x}); NumPy NEP 19 lets Generator distribution "
        "methods change between releases, and every stress report rests on these draws"
    )
    assert [hex(int(w)) for w in raw] == [hex(w) for w in words], hint
    assert [float(x).hex() for x in drawn] == list(normals), hint


def _plain_rng(master_seed, trial_index):
    """The stream as numpy builds it from the stream seed, with no block
    derivation in between."""
    return np.random.Generator(np.random.PCG64(derive_stream_seed(master_seed, trial_index)))


@pytest.fixture
def fresh_blocks():
    """Empty the block cache before and after, so no block outlives a patch."""
    stochastic._block_words.cache_clear()
    yield
    stochastic._block_words.cache_clear()


def _derivation_pairs():
    """(master_seed, trial_index) pairs: edge seeds over the first 1100
    trials and around block edges far out, past 2**64 included, plus 2000
    random pairs."""
    seeds = (0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, 0x9E3779B97F4A7C15)
    pairs = [(s, k) for s in seeds for k in range(1100)]
    for base in (2**32, 2**63, 2**64 - 256, 2**64, 2**65 + 7):
        pairs += [(s, base + k) for s in seeds for k in range(-2, 259)]
    draws = np.random.default_rng(20261019).integers(0, 2**64, size=(1000, 3), dtype=np.uint64)
    pairs += [(int(s), int(k)) for s, k, _ in draws]
    pairs += [(int(s), int(k) * 300) for s, _, k in draws]
    return pairs


def test_block_derivation_sets_the_pcg64_state_numpy_would(fresh_blocks):
    pairs = _derivation_pairs()
    assert len(pairs) >= 10_000
    for master_seed, trial_index in pairs:
        got = derive_trial_rng(master_seed, trial_index).bit_generator
        want = np.random.PCG64(derive_stream_seed(master_seed, trial_index))
        assert got.state == want.state, (master_seed, trial_index)
        # the block passed its check, so the state came from its precomputed words
        assert type(got.seed_seq) is stochastic._StreamSeedSequence, (master_seed, trial_index)


def test_a_block_that_fails_its_check_falls_back_to_pcg64(fresh_blocks, monkeypatch):
    real = stochastic._seed_sequence_words

    def off_by_one_bit(seeds):
        return real(seeds) ^ np.uint64(1)

    monkeypatch.setattr(stochastic, "_seed_sequence_words", off_by_one_bit)
    for master_seed, trial_index in ((0, 0), (2**64 - 1, 255), (5, 2**64 + 300)):
        rng = derive_trial_rng(master_seed, trial_index)
        assert stochastic._block_words(master_seed, trial_index // 256) is None
        assert type(rng.bit_generator.seed_seq) is np.random.SeedSequence
        want = _plain_rng(master_seed, trial_index)
        assert rng.standard_normal(64).tobytes() == want.standard_normal(64).tobytes()


class TestStreamSeedSequence:
    """derive_trial_rng's seed sequence behaves as SeedSequence(stream seed)."""

    PAIRS = ((0, 0), (7, 255), (2**64 - 1, 256), (2**32, 2**64 + 1))

    @pytest.mark.parametrize("master_seed, trial_index", PAIRS)
    def test_attributes_and_other_state_sizes(self, master_seed, trial_index):
        got = derive_trial_rng(master_seed, trial_index).bit_generator.seed_seq
        want = np.random.SeedSequence(derive_stream_seed(master_seed, trial_index))
        for name in ("entropy", "spawn_key", "pool_size", "n_children_spawned"):
            assert getattr(got, name) == getattr(want, name), name
        assert np.array_equal(got.pool, want.pool)
        assert repr(got) == repr(want)
        for n_words, dtype in ((4, np.uint64), (8, np.uint32), (3, np.uint64), (4, "u8")):
            got_words = got.generate_state(n_words, dtype)
            assert got_words.tobytes() == want.generate_state(n_words, dtype).tobytes()
        # a caller may write into the words it gets back
        got.generate_state(4, np.uint64)[:] = 0
        pcg_words = want.generate_state(4, np.uint64)
        assert got.generate_state(4, np.uint64).tobytes() == pcg_words.tobytes()

    @pytest.mark.parametrize("master_seed, trial_index", PAIRS)
    def test_spawned_children_draw_as_before(self, master_seed, trial_index):
        got = derive_trial_rng(master_seed, trial_index)
        want = _plain_rng(master_seed, trial_index)
        for _ in range(2):  # the second spawn continues the spawn count
            got_draws = got.spawn(1)[0].standard_normal(16)
            assert got_draws.tobytes() == want.spawn(1)[0].standard_normal(16).tobytes()
        assert got.bit_generator.seed_seq.n_children_spawned == 2
        got_seqs = got.bit_generator.seed_seq.spawn(3)
        want_seqs = want.bit_generator.seed_seq.spawn(3)
        assert [g.spawn_key for g in got_seqs] == [w.spawn_key for w in want_seqs]

    @pytest.mark.parametrize("master_seed, trial_index", PAIRS)
    def test_pickling_round_trips(self, master_seed, trial_index):
        rng = derive_trial_rng(master_seed, trial_index)
        rng.standard_normal(5)
        copy = pickle.loads(pickle.dumps(rng))
        assert copy.bit_generator.state == rng.bit_generator.state
        assert copy.standard_normal(32).tobytes() == rng.standard_normal(32).tobytes()
        entropy = derive_stream_seed(master_seed, trial_index)
        assert copy.bit_generator.seed_seq.entropy == entropy
        assert pickle.loads(pickle.dumps(rng.bit_generator.seed_seq)).entropy == entropy


class TestCorrelation:
    def test_mix_endpoints(self):
        z1 = np.array([1.0, -2.0, 0.5])
        z2 = np.array([0.3, 0.7, -1.1])
        assert np.array_equal(mix_correlated(0.0, z1, z2), z2)
        assert np.array_equal(mix_correlated(1.0, z1, z2), z1)

    def test_mix_formula(self):
        z1 = np.array([0.5])
        z2 = np.array([-0.25])
        rho = 0.6
        expected = rho * 0.5 + math.sqrt(1 - rho * rho) * -0.25
        assert mix_correlated(rho, z1, z2)[0] == pytest.approx(expected, rel=1e-15)

    def test_rho_out_of_range(self):
        z = np.zeros(1)
        with pytest.raises(ValidationError):
            mix_correlated(1.5, z, z)

    def test_empirical_correlation(self):
        rng = derive_trial_rng(2024, 0)
        rho = 0.7
        n = 200000
        pairs = np.array([correlated_normal_pair(rho, rng) for _ in range(2000)])
        # the scalar helper is slow; bulk-check through the mixer instead
        z = rng.standard_normal((2, n))
        mixed = mix_correlated(rho, z[0], z[1])
        sample = np.corrcoef(z[0], mixed)[0, 1]
        assert sample == pytest.approx(rho, abs=0.01)
        assert np.corrcoef(pairs[:, 0], pairs[:, 1])[0, 1] == pytest.approx(rho, abs=0.08)


class TestPathConfig:
    def test_steps(self):
        cfg = PathConfig(horizon_years=10, dt_years=1 / 12, trials=1, master_seed=0)
        assert cfg.steps == 120

    def test_non_integral_step_count_rejected(self):
        with pytest.raises(ValidationError):
            PathConfig(horizon_years=1.0, dt_years=0.3, trials=1, master_seed=0)

    def test_step_count_is_bounded(self):
        # only constructed, never run: a path this long allocates 0.8 MB
        assert PathConfig(horizon_years=MAX_STEPS, dt_years=1.0).steps == MAX_STEPS
        for years in (MAX_STEPS + 1, 1e9):
            with pytest.raises(ValidationError, match=f"at most {MAX_STEPS} dt_years steps"):
                PathConfig(horizon_years=years, dt_years=1.0)
        with pytest.raises(ValidationError, match="at most"):
            PathConfig(horizon_years=1.0, dt_years=1e-320)

    def test_bad_trials_and_seed(self):
        with pytest.raises(ValidationError):
            PathConfig(horizon_years=1, dt_years=1 / 12, trials=0, master_seed=0)
        with pytest.raises(ValidationError):
            PathConfig(horizon_years=1, dt_years=1 / 12, trials=1, master_seed=-1)


class TestIncomePath:
    def test_zero_volatility_matches_arithmetic_drift(self):
        cfg = PathConfig(horizon_years=5, dt_years=1 / 12, trials=1, master_seed=0)
        path = simulate_income_path(Money.of("41000"), 0.02, 0.0, cfg, derive_trial_rng(0, 0))
        assert len(path.values()) == 61
        assert path.floored_steps == 0
        for k, money in enumerate(path.values()):
            t = k / 12.0
            assert money.cents == round(41000.0 * (1.0 + 0.02 * t) * 100.0)

    def test_recurrence_matches_income_levels_helper(self):
        cfg = PathConfig(horizon_years=2, dt_years=1 / 12, trials=1, master_seed=0)
        rng = derive_trial_rng(5, 9)
        path = simulate_income_path(Money.of("1000"), 0.03, 0.25, cfg, rng)
        shocks = derive_trial_rng(5, 9).standard_normal(cfg.steps)
        expected = income_levels(1000.0, 0.03, 0.25, 1 / 12, shocks)
        assert np.array_equal(path.units, np.rint(expected * 100.0) / 100.0)

    def test_flooring_counts_and_clamps(self):
        # violent downward shocks must clamp at zero, never go negative
        cfg = PathConfig(horizon_years=1, dt_years=1 / 4, trials=1, master_seed=0)
        shocks = np.array([-50.0, -50.0, 1.0, 1.0])
        levels = income_levels(100.0, 0.0, 1.0, 1 / 4, shocks)
        assert levels.min() >= 0.0
        assert levels[1] == 0.0

    def test_time_axis(self):
        cfg = PathConfig(horizon_years=1, dt_years=1 / 2, trials=1, master_seed=3)
        path = simulate_income_path(Money.of("100"), 0.0, 0.1, cfg, derive_trial_rng(3, 0))
        assert np.allclose(path.times, [0.0, 0.5, 1.0])

    def test_terminal_mean_and_std(self):
        # I(T) = I0 (1 + mu T + sigma W_T): check both moments at 3 SE
        i0, mu, sigma, years = 100.0, 0.02, 0.1, 5.0
        cfg = PathConfig(horizon_years=years, dt_years=1 / 12, trials=1, master_seed=11)
        n = 20000
        rng = derive_trial_rng(11, 0)
        all_shocks = rng.standard_normal((n, cfg.steps))
        finals = np.array(
            [income_levels(i0, mu, sigma, 1 / 12, row)[-1] for row in all_shocks]
        )
        expected_mean = i0 * (1.0 + mu * years)
        expected_std = i0 * sigma * math.sqrt(years)
        se = expected_std / math.sqrt(n)
        assert abs(finals.mean() - expected_mean) <= 3 * se
        assert abs(finals.std() - expected_std) <= 4 * expected_std / math.sqrt(2 * n)


def _mirrored_income_path(i0_units, mu, sigma_income, dt, shocks):
    """The income path's former recipe: discretize once from I0 and once
    from -I0 with the same shocks; a raw level is below zero exactly where
    the mirrored level is above its floor.  Returns (cents, floored_steps)."""

    def levels(start):
        t = np.arange(1, len(shocks) + 1) * dt
        w = np.cumsum(math.sqrt(dt) * np.asarray(shocks, dtype=float))
        out = np.empty(len(shocks) + 1)
        out[0] = start
        out[1:] = np.maximum(start * (1.0 + mu * t + sigma_income * w), 0.0)
        return out

    mirrored = levels(-i0_units)
    cents = np.rint(levels(i0_units) * 100.0).astype(np.int64)
    return cents, int(np.count_nonzero(mirrored[1:] > 0.0))


@given(
    start_c=st.one_of(st.sampled_from([0, 1, 6_000_000]), st.integers(0, 10**9)),
    mu=st.one_of(st.sampled_from([0.0, -1.0, -0.5]), st.floats(-2.0, 2.0)),
    sigma_income=st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
    dt=st.sampled_from([1 / 12, 1 / 4, 1.0]),
    years=st.integers(1, 5),
    seed=st.integers(0, 2**64 - 1),
)
@example(start_c=0, mu=-1.0, sigma_income=2.0, dt=1 / 12, years=2, seed=0)
@example(start_c=100, mu=-1.0, sigma_income=0.0, dt=1.0, years=3, seed=0)
def test_income_path_matches_the_mirrored_recipe(start_c, mu, sigma_income, dt, years, seed):
    # the second example has a raw level of exactly 0 at t = 1, then negative ones
    cfg = PathConfig(horizon_years=years, dt_years=dt)
    path = simulate_income_path(Money(start_c), mu, sigma_income, cfg, derive_trial_rng(seed, 0))
    shocks = derive_trial_rng(seed, 0).standard_normal(cfg.steps)
    cents, floored = _mirrored_income_path(start_c / 100, mu, sigma_income, dt, shocks)
    assert np.array_equal(path.cents, cents)
    assert path.floored_steps == floored


def _grid_per_call_unit_path(mu, sigma_income, dt, shocks):
    """The unit path as computed before the drift was cached: the time grid
    and drift rebuilt on every call, nothing done in place."""
    t = np.arange(1, len(shocks) + 1) * dt
    w = np.cumsum(math.sqrt(dt) * np.asarray(shocks, dtype=float))
    return 1.0 + mu * t + sigma_income * w


def _concatenated_floor(i0_units, raw):
    return np.concatenate(((i0_units,), np.maximum(raw, 0.0)))


_LARGE_MU = (1e6, 1e150, 1e300)


@given(
    start_c=st.one_of(st.just(0), st.integers(0, 10**9)),
    mu=st.one_of(st.sampled_from((-1.0, 0.0) + _LARGE_MU), st.floats(-2.0, 2.0)),
    sigma_income=st.one_of(st.just(0.0), st.floats(0.0, 5.0)),
    dt=st.one_of(st.sampled_from([1 / 365, 1 / 12, 1.0]), st.floats(1 / 365, 1.0)),
    steps=st.one_of(st.sampled_from([1, 1200]), st.integers(1, 1200)),
    seed=st.integers(0, 2**64 - 1),
)
@example(start_c=100, mu=-1.0, sigma_income=0.0, dt=1.0, steps=3, seed=0)
@np.errstate(over="ignore")  # a large mu overflows to inf, which the money bound rejects
def test_income_matches_the_grid_per_call_recipe(start_c, mu, sigma_income, dt, steps, seed):
    shocks = derive_trial_rng(seed, 0).standard_normal(steps)
    before = shocks.tobytes()
    i0 = start_c / 100
    raw = i0 * _grid_per_call_unit_path(mu, sigma_income, dt, shocks)
    want = _concatenated_floor(i0, raw)
    for _ in range(2):  # the second call reuses the cached drift
        assert income_levels(i0, mu, sigma_income, dt, shocks).tobytes() == want.tobytes()
    assert income_levels(i0, mu, sigma_income, dt, list(shocks)).tobytes() == want.tobytes()
    assert income_levels(i0, np.array(mu), sigma_income, dt, shocks).tobytes() == want.tobytes()
    assert shocks.tobytes() == before

    drift = stochastic._drift(mu, steps, dt)
    assert not drift.flags.writeable
    with pytest.raises(ValueError):
        drift[0] = 0.0

    cfg = PathConfig(horizon_years=steps * dt, dt_years=dt)
    assert cfg.steps == steps
    cents = np.rint(want * 100.0)
    if not cents.max() <= MAX_CENTS:
        with pytest.raises(DomainError):
            simulate_income_path(Money(start_c), mu, sigma_income, cfg, derive_trial_rng(seed, 0))
        return
    path = simulate_income_path(Money(start_c), mu, sigma_income, cfg, derive_trial_rng(seed, 0))
    assert path.cents.tobytes() == cents.astype(np.int64).tobytes()
    assert path.floored_steps == int(np.count_nonzero(raw < 0.0))


class TestSavingsPath:
    def test_zero_volatility_matches_reference_loop(self):
        cfg = PathConfig(horizon_years=5, dt_years=1 / 12, trials=1, master_seed=0)
        path = simulate_savings_path(
            Money.of("1000"), Money.of("200"), 0.04, 0.0, cfg, derive_trial_rng(0, 0)
        )
        value = 1000.0
        expected = [value]
        for _ in range(cfg.steps):
            value = value * (1.0 + 0.04 / 12.0) + 200.0
            expected.append(value)
        got = path.units
        assert len(got) == len(expected)
        for g, e in zip(got, expected):
            assert g == round(e * 100.0) / 100.0

    def test_shock_array_matches_sequential_oracle(self):
        cfg = PathConfig(horizon_years=1, dt_years=1 / 12, trials=1, master_seed=0)
        rng = derive_trial_rng(21, 2)
        path = simulate_savings_path(Money.of("500"), Money.of("50"), 0.05, 0.2, cfg, rng)
        z = derive_trial_rng(21, 2).standard_normal(cfg.steps)
        sqrt_dt = math.sqrt(1 / 12)
        value = 500.0
        expected = [value]
        for k in range(cfg.steps):
            factor = max(1.0 + 0.05 / 12 + 0.2 * sqrt_dt * z[k], 0.0)
            value = value * factor + 50.0
            expected.append(value)
        for g, e in zip(path.units, expected):
            assert g == pytest.approx(round(e * 100.0) / 100.0, abs=0.011)

    def test_growth_factor_floored_at_zero(self):
        class Crash:
            """A generator whose one normal draw is a -10 sigma crash."""

            def standard_normal(self, size):
                assert size == 1
                return np.array([-10.0])

        cfg = PathConfig(horizon_years=1, dt_years=1.0, trials=1, master_seed=0)
        path = simulate_savings_path(Money.of("100"), Money.of("10"), 0.0, 5.0, cfg, Crash())
        # balance wiped by the crash, only the contribution remains
        assert path.units[-1] == 10.0

    def test_mean_growth_tracks_deterministic_compounding(self):
        cfg = PathConfig(horizon_years=3, dt_years=1 / 12, trials=1, master_seed=0)
        n = 4000
        finals = []
        for k in range(n):
            path = simulate_savings_path(
                Money.of("1000"), Money.of("100"), 0.06, 0.15, cfg, derive_trial_rng(77, k)
            )
            finals.append(path.units[-1])
        value = 1000.0
        for _ in range(cfg.steps):
            value = value * (1.0 + 0.06 / 12.0) + 100.0
        mean = float(np.mean(finals))
        std = float(np.std(finals))
        assert abs(mean - value) <= 3 * std / math.sqrt(n)
