"""Scan synthesis: stage trajectory, rates, counting statistics."""

from __future__ import annotations

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from qolcr import scan
from qolcr.config import default_config, load_config, parse_config
from qolcr.errors import SynthesisError
from qolcr.experiments import synthesize
from qolcr.model import (
    SPECTRAL_POWER,
    SPEED_OF_LIGHT,
    PumpReference,
    Sample,
    Spectrum,
    coherence_envelope,
    response_function,
)
from qolcr.scan import (
    FRINGE_AMPLITUDE,
    HOM_AMPLITUDE,
    SUPPORT_COHERENCE_LENGTHS,
    NoiseModel,
    StageModel,
    _seed_free_trajectory,
    coincidence_baseline,
    coincidence_components,
    intensity_baseline,
    intensity_rate,
    simulate_scan,
    tpi_constant,
    true_positions,
)

LAMBDA_0 = 810e-9
LAMBDA_P = 405e-9


def default_spectrum():
    return Spectrum.from_wavelength(LAMBDA_0, 30e-9)


def default_stage(**kw):
    base = dict(velocity=500e-9, sample_rate=100.0)
    base.update(kw)
    return StageModel(**base)


def two_surface_sample():
    return Sample.from_pairs([(0.6, 9.886e-6), (0.6, 290.114e-6)])


# --- stage model -----------------------------------------------------------

def test_identity_stage_returns_ideal_grid_exactly():
    stage = default_stage()
    d = true_positions(stage, 5000)
    assert np.array_equal(d, stage.reported_grid(5000))


def test_scale_error_deviation_at_scan_end():
    stage = default_stage(scale_error=1e-3)
    d = true_positions(stage, 60001)
    traveled = 60000 * stage.spacing  # 300 um
    assert d[-1] - traveled == pytest.approx(300e-9, rel=1e-9)


def test_stage_fixture_pinned_values():
    # frozen from one seeded generation of the full error model
    stage = default_stage(
        scale_error=1e-3,
        periodic_amplitude=100e-9,
        periodic_period=50e-6,
        drift_step=0.5e-9,
        drift_smoothing=1500,
    )
    d = true_positions(stage, 60000, seed=4242)
    assert d[0] == 0.0
    assert d[1] == pytest.approx(5.0811262647512e-09, rel=1e-12)
    assert d[1000] == pytest.approx(5.078074502004358e-06, rel=1e-12)
    assert d[30000] == pytest.approx(0.00015012459696881145, rel=1e-12)
    assert d[59999] == pytest.approx(0.00030035047483659686, rel=1e-12)
    assert float(d.sum()) == pytest.approx(9.00797124639011, rel=1e-12)
    assert np.all(np.diff(d) > 0)


def test_stage_corrections_are_sub_micron_for_defaults():
    stage = default_stage(
        scale_error=1e-3,
        periodic_amplitude=100e-9,
        periodic_period=50e-6,
        drift_step=0.5e-9,
    )
    d = true_positions(stage, 60000, seed=7)
    corr = np.abs(d - stage.reported_grid(60000))
    assert 50e-9 < corr.max() < 1e-6


def test_non_monotone_stage_rejected():
    stage = default_stage(periodic_amplitude=1e-6, periodic_period=5e-6)
    with pytest.raises(SynthesisError):
        true_positions(stage, 10000)


def test_stage_walk_reproducible():
    stage = default_stage(drift_step=0.3e-9)
    assert np.array_equal(true_positions(stage, 4000, seed=99),
                          true_positions(stage, 4000, seed=99))


def test_seed_free_trajectory_is_cached_read_only_and_keyed_by_spec_and_length():
    stage = default_stage(scale_error=1e-3, periodic_amplitude=100e-9, periodic_phase=0.4)
    cached = _seed_free_trajectory(stage, 4000)
    assert not cached.flags.writeable
    with pytest.raises(ValueError):
        cached[0] = 1.0
    assert _seed_free_trajectory(replace(stage), 4000) is cached
    # oracle: the scale term plus the lead-screw sine, evaluated afresh
    for spec, n in ((stage, 4000), (stage, 5000),
                    (replace(stage, periodic_phase=0.5), 4000),
                    (replace(stage, scale_error=2e-3), 4000),
                    (replace(stage, periodic_amplitude=0.0), 4000)):
        traveled = spec.spacing * np.arange(n)
        expected = traveled * (1.0 + spec.scale_error) + spec.periodic_amplitude * np.sin(
            2.0 * math.pi * traveled / spec.periodic_period + spec.periodic_phase)
        assert np.array_equal(_seed_free_trajectory(spec, n), expected)
        assert np.array_equal(true_positions(spec, n), expected)


@pytest.mark.parametrize("drift_step", [0.0, 0.5e-9])
def test_true_positions_returns_a_fresh_writable_array(drift_step):
    stage = default_stage(scale_error=1e-3, periodic_amplitude=100e-9,
                          drift_step=drift_step)
    first = true_positions(stage, 4000, seed=1)
    expected = first.copy()
    first[:] = 0.0  # writable, and the write must not reach the cache
    again = true_positions(stage, 4000, seed=1)
    assert again.flags.writeable
    assert np.array_equal(again, expected)
    # runs that differ only in the seed share one seed-free trajectory
    hits = _seed_free_trajectory.cache_info().hits
    true_positions(stage, 4000, seed=2)
    assert _seed_free_trajectory.cache_info().hits == hits + 1


# --- intensity channel -----------------------------------------------------

def test_intensity_baseline_far_from_surfaces():
    sample = two_surface_sample()
    spec = default_spectrum()
    mid = 150e-6  # many coherence lengths from both surfaces
    assert float(intensity_rate(sample, spec, mid)) == intensity_baseline(sample, spec)


def test_intensity_extremum_at_surface():
    sample = two_surface_sample()
    spec = default_spectrum()
    at = float(intensity_rate(sample, spec, sample.positions[0]))
    expected = intensity_baseline(sample, spec) + 0.6 * 2 * SPECTRAL_POWER / (2 * math.pi)
    assert at == pytest.approx(expected, rel=1e-12)


def test_intensity_fringe_period_is_half_center_wavelength():
    sample = Sample.from_pairs([(1.0, 50e-6)])
    spec = default_spectrum()
    d = np.linspace(48e-6, 52e-6, 80001)
    fringe = intensity_rate(sample, spec, d) - intensity_baseline(sample, spec)
    signs = np.sign(fringe)
    idx = np.nonzero(np.diff(signs) != 0)[0]
    crossings = d[idx] - fringe[idx] * (d[idx + 1] - d[idx]) / (fringe[idx + 1] - fringe[idx])
    # zero crossings every quarter period of the lambda0/2 fringe
    assert np.mean(np.diff(crossings)) == pytest.approx(LAMBDA_0 / 4, rel=1e-5)


def test_intensity_fringe_scales_linearly_with_reflectivity():
    spec = default_spectrum()
    d = np.linspace(45e-6, 55e-6, 4001)
    lo = Sample.from_pairs([(0.25, 50e-6)])
    hi = Sample.from_pairs([(0.5, 50e-6)])
    fringe_lo = intensity_rate(lo, spec, d) - intensity_baseline(lo, spec)
    fringe_hi = intensity_rate(hi, spec, d) - intensity_baseline(hi, spec)
    assert np.allclose(fringe_hi, 2.0 * fringe_lo, rtol=1e-12, atol=1e-12)


# --- coincidence channel ---------------------------------------------------

def test_pair_constant_single_perfect_mirror():
    spec = default_spectrum()
    sample = Sample.from_pairs([(1.0, 37e-6)])
    assert abs(tpi_constant(sample, spec)) == pytest.approx(SPECTRAL_POWER, rel=1e-12)


def test_pair_constant_destructive_pair():
    # equal reflectivities with 2 omega0 (tau1 - tau2) = pi cancel exactly;
    # that is a quarter pump wavelength of separation
    spec = default_spectrum()
    sample = Sample.from_pairs([(0.4, 10e-6), (0.4, 10e-6 + LAMBDA_P / 4)])
    assert abs(tpi_constant(sample, spec)) < 1e-9 * SPECTRAL_POWER


def test_pair_constant_scales_with_reflectivity_squared():
    spec = default_spectrum()
    base = Sample.from_pairs([(0.3, 12e-6), (0.5, 200e-6)])
    scaled = Sample.from_pairs([(0.6, 12e-6), (1.0, 200e-6)])
    assert tpi_constant(scaled, spec) == pytest.approx(4.0 * tpi_constant(base, spec), rel=1e-12)


def test_pair_carrier_period_is_half_pump_wavelength():
    sample = two_surface_sample()
    spec = default_spectrum()
    pump = PumpReference(LAMBDA_P)
    d = np.linspace(100e-6, 110e-6, 200001)
    carrier = coincidence_components(sample, spec, pump, d)["pair_carrier"]
    signs = np.sign(carrier)
    idx = np.nonzero(np.diff(signs) != 0)[0]
    crossings = d[idx] - carrier[idx] * (d[idx + 1] - d[idx]) / (carrier[idx + 1] - carrier[idx])
    assert np.mean(np.diff(crossings)) == pytest.approx(LAMBDA_P / 4, rel=1e-6)


def test_pair_carrier_amplitude_constant_over_scan():
    sample = two_surface_sample()
    spec = default_spectrum()
    pump = PumpReference(LAMBDA_P)
    d = np.arange(0, 300e-6, 5e-9)
    carrier = coincidence_components(sample, spec, pump, d)["pair_carrier"]
    # envelope probed blockwise: every 2000-sample block spans many fringes
    blocks = carrier[: len(carrier) // 2000 * 2000].reshape(-1, 2000)
    peaks = np.abs(blocks).max(axis=1)
    assert peaks.max() - peaks.min() < 1e-6 * peaks.max() + 1e-9


def test_coincidence_truth_decomposition_is_consistent():
    # the noise-free counts, taken back to model units
    sample = two_surface_sample()
    spec = default_spectrum()
    pump = PumpReference(LAMBDA_P)
    noise = default_noise(poisson_enabled=False)
    baseline = coincidence_baseline(sample, spec)
    trace = simulate_scan(sample, spec, pump, default_stage(sample_rate=20.0), noise,
                          (0.0, 300e-6))
    rate = (trace.coincidence - noise.background) * baseline / noise.coincidence_scale
    parts = coincidence_components(sample, spec, pump, trace.truth.true_d)
    residual = rate - baseline - parts["hom"] - parts["fringes"]
    assert np.allclose(residual, parts["pair_carrier"], rtol=1e-12,
                       atol=1e-12 * baseline)


@pytest.mark.parametrize("config", [
    default_config(),
    load_config(Path(__file__).resolve().parents[1] / "perfbench" / "multilayer.json"),
], ids=["default", "multilayer"])
def test_real_kernels_bit_identical_to_complex_form(config):
    # oracle: the complex expressions the real-valued kernels replaced,
    # evaluated on run 0's true positions; any last-bit difference would
    # change the synthesized artifacts. The complex packet is summed on the
    # same coherence supports as the synthesis, so the fringes must match it
    # on every sample; off the supports the full-grid complex form is below
    # 1e-40 of its peak, which is what dropping it costs
    spec, sample = config.spectrum, config.sample
    true_d = synthesize(config, 0).truth.true_d
    tau = 2.0 * true_d / SPEED_OF_LIGHT
    rotor = np.exp(-1j * spec.center_frequency * tau)
    half = SUPPORT_COHERENCE_LENGTHS * spec.coherence_time
    packet = np.zeros(tau.shape, dtype=complex)
    full_packet = np.zeros(tau.shape, dtype=complex)
    inside = np.zeros(tau.shape, dtype=bool)
    intensity = np.full(tau.shape, intensity_baseline(sample, spec))
    for r, tau_j in zip(sample.reflectivities, sample.delays):
        env = coherence_envelope(spec, tau - tau_j).astype(complex)
        kernel = 2.0 * np.real(env * np.exp(-1j * spec.center_frequency * (tau - tau_j)))
        assert np.array_equal(response_function(spec, tau - tau_j), kernel)
        sl = scan._support(tau, tau_j, half)
        packet[sl] += r * env[sl]
        full_packet += r * env
        inside[sl] = True
        intensity += r * kernel
    # the intensity channel reuses each envelope the coincidence channel sums
    assert np.array_equal(intensity_rate(sample, spec, true_d), intensity)
    fringes = coincidence_components(sample, spec, config.pump, true_d)["fringes"]
    assert np.array_equal(fringes, 4.0 * FRINGE_AMPLITUDE * np.real(packet * rotor))
    assert 0 < np.count_nonzero(inside) < tau.size
    assert not np.any(fringes[~inside])
    full_form = 4.0 * FRINGE_AMPLITUDE * np.real(full_packet * rotor)
    assert np.abs(full_form[~inside]).max() < 1e-40 * np.abs(full_form).max()


def test_rate_functions_take_a_scalar_or_an_ascending_1d_d():
    sample = two_surface_sample()
    spec = default_spectrum()
    pump = PumpReference(LAMBDA_P)
    assert intensity_rate(sample, spec, 10e-6).shape == ()
    parts = coincidence_components(sample, spec, pump, 10e-6)
    assert all(part.shape == () for part in parts.values())
    d = np.linspace(0.0, 20e-6, 401)
    assert intensity_rate(sample, spec, list(d)).shape == d.shape
    # the support slices of an unsorted grid would be wrong, so it is refused
    for bad in (d[::-1], d.reshape(1, -1), np.array([1e-6, np.nan]), np.inf):
        with pytest.raises(ValueError, match="^d must"):
            intensity_rate(sample, spec, bad)
        with pytest.raises(ValueError, match="^d must"):
            coincidence_components(sample, spec, pump, bad)


def test_coincidence_rate_nonnegative_model_units():
    sample = two_surface_sample()
    spec = default_spectrum()
    pump = PumpReference(LAMBDA_P)
    trace = simulate_scan(sample, spec, pump, default_stage(),
                          default_noise(poisson_enabled=False), (0.0, 300e-6))
    assert trace.n_samples == 60000
    parts = coincidence_components(sample, spec, pump, trace.truth.true_d)
    baseline = coincidence_baseline(sample, spec)
    rate = baseline + parts["hom"] + parts["fringes"] + parts["pair_carrier"]
    assert rate.min() > 0.0


# --- full synthesis --------------------------------------------------------

def default_noise(**kw):
    base = dict(singles_scale=5000.0, coincidence_scale=300.0, background=20.0)
    base.update(kw)
    return NoiseModel(**base)


def test_default_scan_has_sixty_thousand_samples():
    trace = simulate_scan(
        two_surface_sample(), default_spectrum(), PumpReference(LAMBDA_P),
        default_stage(), default_noise(), (0.0, 300e-6), noise_seed=11,
    )
    assert trace.n_samples == 60000
    assert trace.spacing == pytest.approx(5e-9, rel=1e-12)


def test_noiseless_scan_equals_expected_rates():
    sample = two_surface_sample()
    spec = default_spectrum()
    noise = default_noise(poisson_enabled=False)
    trace = simulate_scan(sample, spec, PumpReference(LAMBDA_P),
                          default_stage(), noise, (0.0, 300e-6))
    assert np.array_equal(trace.intensity, trace.truth.intensity_rate)
    assert np.array_equal(trace.coincidence, trace.truth.coincidence_rate)


def test_poisson_sample_mean_matches_rate():
    # law of large numbers on a fringe-free stretch of >= 10^4 bins
    sample = two_surface_sample()
    spec = default_spectrum()
    noise = default_noise()
    trace = simulate_scan(sample, spec, PumpReference(LAMBDA_P),
                          default_stage(), noise, (0.0, 300e-6), noise_seed=5)
    sel = slice(22000, 36000)  # mid-scan, far from both packets
    expected = trace.truth.intensity_rate[sel]
    assert np.ptp(expected) < 1e-6  # fringe-free: constant rate
    mean_rate = expected.mean()
    n = expected.size
    tol = 4.0 * math.sqrt(mean_rate / n)
    assert abs(trace.intensity[sel].mean() - mean_rate) < tol


def test_scan_truth_matches_separate_rate_evaluation():
    # synthesis shares each surface envelope between both channels; the
    # truth it keeps must equal a fresh evaluation of the public rates and
    # components, scaled to counts as NoiseModel documents
    sample = two_surface_sample()
    spec = default_spectrum()
    pump = PumpReference(LAMBDA_P)
    noise = default_noise()
    trace = simulate_scan(sample, spec, pump,
                          default_stage(drift_step=0.3e-9), noise,
                          (0.0, 300e-6), stage_seed=2, noise_seed=4)
    baseline = coincidence_baseline(sample, spec)
    true_d = trace.truth.true_d
    parts = coincidence_components(sample, spec, pump, true_d)
    rate = baseline + parts["hom"] + parts["fringes"] + parts["pair_carrier"]
    expected = noise.coincidence_scale * rate / baseline + noise.background
    assert np.array_equal(trace.truth.coincidence_rate, expected)
    expected = (noise.singles_scale * intensity_rate(sample, spec, true_d)
                / intensity_baseline(sample, spec) + noise.background)
    assert np.array_equal(trace.truth.intensity_rate, expected)
    assert np.array_equal(trace.truth.pair_carrier,
                          noise.coincidence_scale * parts["pair_carrier"] / baseline)


def test_scan_reproducible_with_seeds():
    kw = dict(
        sample=two_surface_sample(), spectrum=default_spectrum(),
        pump=PumpReference(LAMBDA_P), stage=default_stage(drift_step=0.3e-9),
        noise=default_noise(), scan_range=(0.0, 300e-6), stage_seed=3, noise_seed=8,
    )
    a = simulate_scan(**kw)
    b = simulate_scan(**kw)
    assert np.array_equal(a.intensity, b.intensity)
    assert np.array_equal(a.coincidence, b.coincidence)


def test_scan_rejects_surfaces_without_margin():
    sample = Sample.from_pairs([(0.5, 2e-6), (0.5, 150e-6)])
    with pytest.raises(SynthesisError):
        simulate_scan(sample, default_spectrum(), PumpReference(LAMBDA_P),
                      default_stage(), default_noise(), (0.0, 300e-6))


def test_scan_rejects_unresolvable_gap():
    sample = Sample.from_pairs([(0.5, 100e-6), (0.5, 105e-6)])
    with pytest.raises(SynthesisError):
        simulate_scan(sample, default_spectrum(), PumpReference(LAMBDA_P),
                      default_stage(), default_noise(), (0.0, 300e-6))


def test_scan_rejects_nondegenerate_pump():
    with pytest.raises(ValueError):
        simulate_scan(two_surface_sample(), default_spectrum(), PumpReference(410e-9),
                      default_stage(), default_noise(), (0.0, 300e-6))


# --- coherence-support synthesis ---------------------------------------------
# oracle: the full-grid synthesis that evaluated every surface term on all
# samples; synthesis on each term's coherence support must reproduce it bit
# for bit, or the artifacts would change

def _full_grid_delays(sample, spectrum, d):
    tau = 2.0 * np.asarray(d, dtype=float) / SPEED_OF_LIGHT
    shifted = [tau - tau_j for tau_j in sample.delays]
    return tau, [(x, coherence_envelope(spectrum, x)) for x in shifted]


def _full_grid_intensity_rate(sample, spectrum, tau, surfaces):
    rate = np.full(tau.shape, intensity_baseline(sample, spectrum))
    for r, (x, env) in zip(sample.reflectivities, surfaces):
        rate += r * response_function(spectrum, x, env)
    return rate


def _full_grid_coincidence_components(sample, spectrum, pump, tau, surfaces):
    taus = sample.delays
    refl = sample.reflectivities
    env_scale = SPECTRAL_POWER / (2.0 * math.pi)
    sig = spectrum.sigma

    hom = np.zeros(tau.shape)
    for i in range(len(refl)):
        for j in range(i + 1, len(refl)):
            center = taus[i] + taus[j]
            hom += refl[i] * refl[j] * np.exp(-0.5 * (sig * (2.0 * tau - center)) ** 2)
    hom = 2.0 * HOM_AMPLITUDE * env_scale * hom

    packet = np.zeros(tau.shape)
    for r, (_, env) in zip(refl, surfaces):
        packet += r * env
    fringes = 4.0 * FRINGE_AMPLITUDE * (packet * np.cos(spectrum.center_frequency * tau))

    tpi = tpi_constant(sample, spectrum)
    pair_carrier = 2.0 * abs(tpi) * np.cos(
        pump.angular_frequency * tau - math.atan2(tpi.imag, tpi.real))
    return {"hom": hom, "fringes": fringes, "pair_carrier": pair_carrier}


def _close_surfaces_config():
    # overlapping supports, the first clipped at the scan start
    return parse_config({"sample": {"surfaces": [
        {"reflectivity": 0.6, "position_um": 10.0},
        {"reflectivity": 0.05, "position_um": 40.0},
        {"reflectivity": 0.6, "position_um": 70.0},
    ]}})


def _dense_stack_config():
    # nine surfaces 31 um (3.2 coherence lengths) apart: a sample lies in up to four supports
    return parse_config({"sample": {"surfaces": [
        {"reflectivity": 0.1, "position_um": 20.0 + 31.0 * k} for k in range(9)
    ]}})


def _narrow_band_config():
    # one surface whose support is wider than the whole scan
    return parse_config({
        "sample": {"surfaces": [{"reflectivity": 0.6, "position_um": 150.0}]},
        "spectrum": {"bandwidth_fwhm_nm": 3.0},
    })


@pytest.mark.parametrize("config, run_index", [
    (default_config(), 0),
    (default_config(), 1),
    (default_config(), 2),
    (load_config(Path(__file__).resolve().parents[1] / "perfbench" / "multilayer.json"), 0),
    (parse_config({"noise": {"enabled": False}}), 0),
    (_close_surfaces_config(), 0),
    (_dense_stack_config(), 0),
    (_narrow_band_config(), 0),
], ids=["default-0", "default-1", "default-2", "multilayer-0", "noise-off",
        "close-surfaces", "dense-stack", "narrow-band"])
def test_support_synthesis_bit_identical_to_full_grid(config, run_index, monkeypatch):
    trace = synthesize(config, run_index)
    with monkeypatch.context() as m:
        m.setattr(scan, "_delays", _full_grid_delays)
        m.setattr(scan, "_intensity_rate", _full_grid_intensity_rate)
        m.setattr(scan, "_coincidence_components", _full_grid_coincidence_components)
        full = synthesize(config, run_index)
    assert np.array_equal(trace.intensity, full.intensity)
    assert np.array_equal(trace.coincidence, full.coincidence)
    for name in ("intensity_rate", "coincidence_rate", "pair_carrier"):
        assert np.array_equal(getattr(trace.truth, name), getattr(full.truth, name)), name


# --- the pair carrier as one real cosine ---------------------------------------
# 2 |C| cos(omega_p tau - arg C) replaced 2 Re{C exp(-i omega_p tau)}; the two differ
# in the last bits only, well below half a count, so no Poisson draw moves

def _complex_pair_carrier(sample, spectrum, pump, tau):
    return 2.0 * np.real(
        tpi_constant(sample, spectrum) * np.exp(-1j * pump.angular_frequency * tau))


_SUPPORT_COINCIDENCE_COMPONENTS = scan._coincidence_components


def _complex_carrier_components(sample, spectrum, pump, tau, surfaces):
    parts = _SUPPORT_COINCIDENCE_COMPONENTS(sample, spectrum, pump, tau, surfaces)
    parts["pair_carrier"] = _complex_pair_carrier(sample, spectrum, pump, tau)
    return parts


@pytest.mark.parametrize("config", [
    default_config(),
    load_config(Path(__file__).resolve().parents[1] / "perfbench" / "multilayer.json"),
    _close_surfaces_config(),
], ids=["default", "multilayer", "close-surfaces"])
def test_pair_carrier_cosine_matches_complex_exponential(config):
    true_d = synthesize(config, 0).truth.true_d
    tau = 2.0 * true_d / SPEED_OF_LIGHT
    got = coincidence_components(config.sample, config.spectrum, config.pump, true_d)
    expected = _complex_pair_carrier(config.sample, config.spectrum, config.pump, tau)
    amplitude = 2.0 * abs(tpi_constant(config.sample, config.spectrum))
    assert np.max(np.abs(got["pair_carrier"] - expected)) < 1e-11 * amplitude


@pytest.mark.parametrize("config, run_index", [
    (default_config(), 0),
    (default_config(), 1),
    (default_config(), 2),
    (load_config(Path(__file__).resolve().parents[1] / "perfbench" / "multilayer.json"), 0),
    (_close_surfaces_config(), 0),
], ids=["default-0", "default-1", "default-2", "multilayer-0", "close-surfaces"])
def test_cosine_pair_carrier_moves_no_poisson_draw(config, run_index, monkeypatch):
    trace = synthesize(config, run_index)
    with monkeypatch.context() as m:
        m.setattr(scan, "_coincidence_components", _complex_carrier_components)
        complex_form = synthesize(config, run_index)
    assert np.array_equal(trace.intensity, complex_form.intensity)
    assert np.array_equal(trace.coincidence, complex_form.coincidence)
