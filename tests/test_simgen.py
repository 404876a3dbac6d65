"""Synthetic trace generator tests: RNG portability, profiles, determinism."""

import math
import statistics
import warnings

import pytest

from conftest import REF_TRUTH
from wattmodel import (
    FloorWarning,
    GroundTruth,
    PortableRandom,
    SimConfig,
    SimConfigError,
    align,
    default_tolerance,
    evaluate,
    format_metrics,
    format_power,
    generate,
    train,
)
from wattmodel.cli import describe

FULL_RANK_PROFILES = ("diurnal", "bursty")


def config(profile="bursty", duration=7200.0, interval=60.0, noise=0.0, seed=1,
           truth=REF_TRUTH):
    return SimConfig(
        truth=truth,
        duration_s=duration,
        interval_s=interval,
        noise_sigma_w=noise,
        seed=seed,
        workload_profile=profile,
    )


# ---------------------------------------------------------------- the RNG


def reference_xorshift_star(seed, count):
    """Straight transcription of the xorshift64* recurrence, kept separate
    from the library so the generator cannot drift unnoticed."""
    mask = (1 << 64) - 1
    state = seed & mask
    if state == 0:
        state = 0x9E3779B97F4A7C15
    out = []
    for _ in range(count):
        state ^= state >> 12
        state = (state ^ (state << 25)) & mask
        state ^= state >> 27
        out.append((state * 0x2545F4914F6CDD1D) & mask)
    return out


def test_rng_known_answer_vectors():
    # first outputs for seed 1, frozen so any algorithm change is loud
    assert reference_xorshift_star(1, 3) == [
        0x47E4CE4B896CDD1D,
        0xABCFA6A8E079651D,
        0xB9D10D8FEB731F57,
    ]
    rng = PortableRandom(1)
    assert [rng.next_u64() for _ in range(3)] == reference_xorshift_star(1, 3)


def test_rng_matches_reference_across_seeds():
    for seed in (0, 1, 2, 42, 2**63, 2**64 - 1, -1):
        rng = PortableRandom(seed)
        assert [rng.next_u64() for _ in range(50)] == reference_xorshift_star(seed, 50)


def test_rng_zero_seed_is_remapped():
    # zero would be a fixed point of xorshift; the stream must still vary
    rng = PortableRandom(0)
    values = {rng.next_u64() for _ in range(10)}
    assert len(values) == 10


def test_uniform_range_and_mean():
    rng = PortableRandom(123)
    draws = [rng.uniform() for _ in range(10000)]
    assert all(0.0 <= u < 1.0 for u in draws)
    assert statistics.fmean(draws) == pytest.approx(0.5, abs=0.02)


def test_gaussian_moments():
    rng = PortableRandom(7)
    draws = [rng.gaussian() for _ in range(20000)]
    assert statistics.fmean(draws) == pytest.approx(0.0, abs=0.03)
    assert statistics.stdev(draws) == pytest.approx(1.0, abs=0.03)
    assert all(math.isfinite(z) for z in draws)


# ------------------------------------------------------------- profiles


def test_idle_profile_emits_pure_baseline():
    metrics, power = generate(config(profile="idle"))
    assert all((m.cpu, m.mem, m.disk, m.net) == (0.0, 0.0, 0.0, 0.0)
               for m in metrics)
    assert all(p.power_w == 107.5 for p in power)


def test_constant_profile_holds_mid_range():
    metrics, _ = generate(config(profile="constant"))
    first = (metrics[0].cpu, metrics[0].mem, metrics[0].disk, metrics[0].net)
    assert first == (0.5, 2.0e6, 200.0, 2.0e8)
    assert all((m.cpu, m.mem, m.disk, m.net) == first for m in metrics)


def test_bursty_profile_is_two_level():
    metrics, _ = generate(config(profile="bursty", duration=86400.0))
    cpu_levels = {m.cpu for m in metrics}
    assert cpu_levels == {0.05, 0.8}
    assert {m.disk for m in metrics} == {0.05 * 400.0, 0.8 * 400.0}


def test_diurnal_profile_stays_in_bounds_and_varies():
    metrics, _ = generate(config(profile="diurnal", duration=86400.0))
    cpus = [m.cpu for m in metrics]
    assert all(0.0 <= c <= 1.0 for c in cpus)
    assert all(m.mem >= 0.0 and m.disk >= 0.0 and m.net >= 0.0 for m in metrics)
    assert max(cpus) - min(cpus) > 0.3  # a day of sinusoid sweeps a wide range


def test_all_samples_share_one_timestamp_grid():
    metrics, power = generate(config(interval=30.0))
    assert [m.timestamp for m in metrics] == [p.timestamp for p in power]
    assert metrics[1].timestamp - metrics[0].timestamp == 30.0


def test_sample_count_follows_duration():
    metrics, _ = generate(config(duration=600.0, interval=1.0))
    assert len(metrics) == 600
    metrics, _ = generate(config(duration=120.0, interval=60.0))
    assert len(metrics) == 2


# ------------------------------------------------------------ determinism


def test_same_seed_is_byte_identical():
    cfg = config(profile="bursty", noise=2.0, seed=99)
    m1, p1 = generate(cfg)
    m2, p2 = generate(cfg)
    assert format_metrics(m1) == format_metrics(m2)
    assert format_power(p1) == format_power(p2)


def test_different_seeds_differ():
    _, p1 = generate(config(noise=2.0, seed=1))
    _, p2 = generate(config(noise=2.0, seed=2))
    assert format_power(p1) != format_power(p2)


def test_noiseless_power_is_exact_truth_application():
    metrics, power = generate(config(profile="bursty"))
    truth = REF_TRUTH
    for m, p in zip(metrics, power):
        expected = (truth.alpha + truth.beta_cpu * m.cpu + truth.beta_mem * m.mem
                    + truth.beta_disk * m.disk + truth.beta_net * m.net)
        assert p.power_w == expected


# ----------------------------------------------------------- closed loop


@pytest.mark.parametrize("profile", FULL_RANK_PROFILES)
def test_noiseless_closed_loop_recovers_truth(profile):
    for seed in (1, 7, 1234):
        metrics, power = generate(config(profile=profile, duration=86400.0,
                                         seed=seed))
        trace = align(metrics, power, default_tolerance(metrics))
        model = train(trace)
        assert model.alpha == pytest.approx(REF_TRUTH.alpha, rel=1e-6)
        assert model.beta_cpu == pytest.approx(REF_TRUTH.beta_cpu, rel=1e-6)
        assert model.beta_mem == pytest.approx(REF_TRUTH.beta_mem, rel=1e-6)
        assert model.beta_disk == pytest.approx(REF_TRUTH.beta_disk, rel=1e-6)
        assert model.beta_net == pytest.approx(REF_TRUTH.beta_net, rel=1e-6)


def test_fit_residual_sigma_estimates_noise():
    metrics, power = generate(config(profile="bursty", duration=600000.0,
                                     interval=60.0, noise=2.0, seed=5))
    trace = align(metrics, power, default_tolerance(metrics))
    model = train(trace)
    assert model.diagnostics.residual_sigma == pytest.approx(2.0, rel=0.1)


def test_noisy_closed_loop_stays_accurate():
    metrics, power = generate(config(profile="bursty", duration=86400.0,
                                     noise=2.0, seed=3))
    trace = align(metrics, power, default_tolerance(metrics))
    report = evaluate(train(trace), trace)
    assert report.mape < 1.0
    assert report.accuracy > 99.0


# ------------------------------------------------------------- the floor


def test_floor_warning_counts_preserved_samples():
    cfg = config(profile="idle", noise=5.0, seed=2,
                 truth=GroundTruth(1.5, 0.0, 0.0, 0.0, 0.0))
    with pytest.warns(FloorWarning, match="floored"):
        _, power = generate(cfg)
    assert all(p.power_w >= 1.0 for p in power)
    assert any(p.power_w == 1.0 for p in power)


def test_no_floor_warning_for_healthy_signal():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        generate(config(noise=2.0))


# ---------------------------------------------------------- configuration


def test_config_validation():
    with pytest.raises(SimConfigError):
        config(interval=0.0)
    with pytest.raises(SimConfigError):
        config(duration=50.0, interval=60.0)  # below two intervals
    with pytest.raises(SimConfigError, match="overflows"):
        config(duration=1e300, interval=1e-10)  # the sample count is not finite
    with pytest.raises(SimConfigError):
        config(noise=-1.0)
    with pytest.raises(SimConfigError):
        config(profile="lumpy")
    with pytest.raises(SimConfigError):
        config(seed=True)
    with pytest.raises(SimConfigError):
        SimConfig(truth=GroundTruth(math.inf, 0, 0, 0, 0), duration_s=600.0,
                  interval_s=60.0)


def test_describe_is_stable_and_complete():
    cfg = config(profile="idle", seed=31)
    text = describe(cfg)
    assert describe(cfg) == text
    assert "idle" in text
    assert "107.5" in text
    assert "31" in text


def test_describe_seed_isolated_to_one_line():
    base = describe(config(seed=1)).splitlines()
    other = describe(config(seed=2)).splitlines()
    differing = [i for i, (a, b) in enumerate(zip(base, other)) if a != b]
    assert len(differing) == 1
    assert "seed" in base[differing[0]]
