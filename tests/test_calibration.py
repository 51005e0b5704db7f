"""Carrier filtering, phase extraction, axis calibration, resampling."""

from __future__ import annotations

import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft import irfft, next_fast_len
from scipy.interpolate import CubicHermiteSpline  # the oracle of the resampling interpolant
from scipy.signal import fftconvolve, hilbert

from qolcr.calibration import (
    CalibrationMap,
    PhaseTrace,
    _bessel_hermite,
    _filtered_spectrum,
    _kernel_spectrum,
    _quadrature,
    _unwrap,
    build_calibration,
    design_bandpass,
    extract_phase,
    extract_tpi,
    resample_intensity,
    zero_phase_apply,
)
from qolcr.config import default_config, load_config
from qolcr.errors import CalibrationQualityError, ConfigError
from qolcr.experiments import synthesize
from qolcr.model import PumpReference, Sample, Spectrum
from qolcr.scan import ScanTrace, StageModel, simulate_scan

LAMBDA_0 = 810e-9
LAMBDA_P = 405e-9
SPACING = 5e-9
CARRIER_FREQ = 2.0 / LAMBDA_P       # cycles per meter of mirror travel
PUMP = PumpReference(LAMBDA_P)
BANDPASS = default_config().pipeline.bandpass   # the carrier filter the pipeline runs
# the default count scales with noise.enabled false: expected counts per bin
NOISE_OFF = replace(default_config().noise, poisson_enabled=False)
MULTILAYER = Path(__file__).resolve().parents[1] / "perfbench" / "multilayer.json"


def carrier_trace(n=60000, amplitude=500.0, baseline=4000.0, phi0=0.3,
                  am=None, spacing=SPACING):
    """Synthetic trace whose coincidence channel is a bare carrier."""
    d = np.arange(n) * spacing
    envelope = np.ones(n)
    if am is not None:
        depth, period = am
        envelope = 1.0 + depth * np.sin(2.0 * math.pi * d / period)
    coincidence = baseline + amplitude * envelope * np.cos(
        2.0 * math.pi * CARRIER_FREQ * d + phi0)
    return ScanTrace(
        reported_d=d,
        intensity=np.full(n, 1000.0),
        coincidence=coincidence,
        spacing=spacing,
    )


SAMPLE = Sample.from_pairs([(0.6, 9.886e-6), (0.6, 290.114e-6)])
SPECTRUM = Spectrum.from_wavelength(LAMBDA_0, 30e-9)


def simulate(stage=None, stage_seed=None):
    if stage is None:
        stage = StageModel(velocity=500e-9, sample_rate=100.0)
    return simulate_scan(SAMPLE, SPECTRUM, PUMP, stage, noise=NOISE_OFF,
                         scan_range=(0.0, 300e-6), stage_seed=stage_seed)


@pytest.fixture(scope="module")
def identity_trace():
    return simulate()


@pytest.fixture(scope="module")
def distorted_trace():
    stage = StageModel(velocity=500e-9, sample_rate=100.0,
                       scale_error=1e-3, periodic_amplitude=100e-9,
                       periodic_period=50e-6, drift_step=2e-10)
    return simulate(stage=stage, stage_seed=77)


# ---------------------------------------------------------------------------
# band-pass design and application


def test_taps_are_symmetric_linear_phase():
    spec = BANDPASS
    taps = design_bandpass(spec, SPACING)
    assert len(taps) == 2001
    assert np.array_equal(taps, taps[::-1])


def test_filter_passes_carrier_tone_with_zero_phase():
    spec = BANDPASS
    taps = design_bandpass(spec, SPACING)
    d = np.arange(40000) * SPACING
    tone = np.cos(2.0 * math.pi * CARRIER_FREQ * d + 0.7)
    out = zero_phase_apply(taps, tone)
    interior = slice(2000, 38000)
    assert np.max(np.abs(out[interior] - tone[interior])) < 0.02


def test_filter_blocks_dc_and_fringe_band():
    spec = BANDPASS
    taps = design_bandpass(spec, SPACING)
    d = np.arange(40000) * SPACING
    interior = slice(2000, 38000)

    dc = zero_phase_apply(taps, np.full(40000, 250.0))
    assert np.max(np.abs(dc[interior])) < 250.0 * 1e-3

    # classical fringes sit one octave below the carrier
    fringe = np.cos(2.0 * math.pi * (CARRIER_FREQ / 2.0) * d)
    out = zero_phase_apply(taps, fringe)
    assert np.max(np.abs(out[interior])) < 10 ** (-40.0 / 20.0)


def test_design_rejects_impossible_specs():
    with pytest.raises(ConfigError):
        design_bandpass(replace(BANDPASS, num_taps=31), SPACING)
    with pytest.raises(ConfigError):
        # band edge beyond Nyquist for a coarse grid
        design_bandpass(BANDPASS, 150e-9)
    with pytest.raises(ConfigError):
        replace(BANDPASS, num_taps=100)  # even tap count
    with pytest.raises(ConfigError):
        replace(BANDPASS, relative_bandwidth=1.5)
    with pytest.raises(ConfigError):
        replace(BANDPASS, center_frequency=-1.0)
    for spacing in (math.nan, math.inf):
        # nan taps would pass every response check, since nan > limit is False
        with pytest.raises(ConfigError, match=f"^sample spacing must be a finite positive "
                                              f"number, got {spacing}$"):
            design_bandpass(BANDPASS, spacing)


def test_design_is_cached_per_spec_and_spacing():
    # every run of a study shares one design: a repeat call returns the same
    # read-only array, and any other key gets a fresh, uncached design
    taps = design_bandpass(BANDPASS, SPACING)
    assert design_bandpass(replace(BANDPASS), SPACING) is taps
    with pytest.raises(ValueError):
        taps[0] = 1.0
    for spec, spacing in ((replace(BANDPASS, num_taps=1001), SPACING),
                          (BANDPASS, 4e-9)):
        other = design_bandpass(spec, spacing)
        assert other is not taps
        assert np.array_equal(other, design_bandpass.__wrapped__(spec, spacing))


def test_design_failure_is_not_cached():
    bad = replace(BANDPASS, num_taps=31)
    for _ in range(2):
        with pytest.raises(ConfigError):
            design_bandpass(bad, 150e-9)
    cached = design_bandpass.cache_info().currsize
    for _ in range(2):
        with pytest.raises(ConfigError):
            design_bandpass(BANDPASS, math.nan)
    assert design_bandpass.cache_info().currsize == cached


def test_white_noise_gain_matches_tap_energy():
    spec = BANDPASS
    taps = design_bandpass(spec, SPACING)
    rng = np.random.default_rng(3)
    x = rng.normal(0.0, 1.0, 300000)
    out = zero_phase_apply(taps, x)[5000:-5000]
    expected = math.sqrt(float(np.dot(taps, taps)))
    assert abs(float(out.std()) / expected - 1.0) < 0.03


def test_filter_is_linear_to_float_precision():
    spec = BANDPASS
    taps = design_bandpass(spec, SPACING)
    rng = np.random.default_rng(4)
    x = rng.normal(0.0, 1.0, 20000)
    y = rng.normal(0.0, 1.0, 20000)
    a, b = 2.375, -0.6875
    lhs = zero_phase_apply(taps, a * x + b * y)
    rhs = a * zero_phase_apply(taps, x) + b * zero_phase_apply(taps, y)
    scale = np.max(np.abs(rhs)) + 1.0
    assert np.max(np.abs(lhs - rhs)) < 1e-12 * scale


@settings(max_examples=15, deadline=None)
@given(rel=st.floats(-0.03, 0.03), phi=st.floats(0.0, 2.0 * math.pi))
def test_filter_flat_over_carrier_neighborhood(rel, phi):
    spec = BANDPASS
    taps = design_bandpass(spec, SPACING)
    d = np.arange(20000) * SPACING
    f = CARRIER_FREQ * (1.0 + rel)
    tone = np.cos(2.0 * math.pi * f * d + phi)
    out = zero_phase_apply(taps, tone)[3000:-3000]
    ref = tone[3000:-3000]
    amp = float(np.dot(out, ref) / np.dot(ref, ref))
    assert abs(amp - 1.0) < 0.015


@pytest.mark.parametrize("num_taps", [31, 2001])
@pytest.mark.parametrize("n", [7, 1000, 12345, 60000, 60208, 60720])
def test_zero_phase_apply_bit_identical_to_fftconvolve(num_taps, n):
    # 60208 + 2001 - 1 and 60720 + 31 - 1 are fast lengths already; the
    # other lengths get padded by different amounts
    taps = (design_bandpass(BANDPASS, SPACING) if num_taps == 2001
            else np.kaiser(num_taps, 8.96) / num_taps)
    values = np.random.default_rng(n).normal(0.0, 1.0, n)
    assert np.array_equal(zero_phase_apply(taps, values),
                          fftconvolve(values, taps, mode="same"))


def test_zero_phase_apply_reuses_one_kernel_spectrum_per_length():
    taps = design_bandpass(BANDPASS, SPACING)
    x = np.random.default_rng(5).normal(0.0, 1.0, 30000)
    first = zero_phase_apply(taps, x)
    before = _kernel_spectrum.cache_info()
    assert np.array_equal(zero_phase_apply(taps, x), first)
    after = _kernel_spectrum.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)

    key = taps.tobytes()
    nfft = next_fast_len(30000 + len(taps) - 1, real=True)
    spectrum = _kernel_spectrum(key, nfft)
    assert _kernel_spectrum(key, nfft) is spectrum
    with pytest.raises(ValueError):
        spectrum[0] = 0.0

    zero_phase_apply(taps, x[:20000])       # a new length, a new FFT size
    assert _kernel_spectrum.cache_info().misses == after.misses + 1
    other = _kernel_spectrum(key, next_fast_len(20000 + len(taps) - 1, real=True))
    assert other is not spectrum and len(other) != len(spectrum)


# ---------------------------------------------------------------------------
# carrier extraction


def _filter_valid(carrier):
    """The samples at least the filter's group delay from either end."""
    return slice(carrier.delay, len(carrier.values) - carrier.delay)


def test_extract_tpi_passes_pure_carrier():
    trace = carrier_trace()
    carrier = extract_tpi(trace, BANDPASS)
    d = trace.reported_d
    truth = 500.0 * np.cos(2.0 * math.pi * CARRIER_FREQ * d + 0.3)
    sel = _filter_valid(carrier)
    resid = carrier.values[sel] - truth[sel]
    rel = math.sqrt(float(np.mean(resid ** 2))) / math.sqrt(float(np.mean(truth[sel] ** 2)))
    assert rel < 0.01


def test_extract_tpi_from_full_coincidence_model(identity_trace):
    carrier = extract_tpi(identity_trace, BANDPASS)
    truth = identity_trace.truth.pair_carrier
    sel = _filter_valid(carrier)
    resid = carrier.values[sel] - truth[sel]
    rel = math.sqrt(float(np.mean(resid ** 2))) / math.sqrt(float(np.mean(truth[sel] ** 2)))
    assert rel < 0.02


def test_extract_tpi_edge_exclusion_width():
    trace = carrier_trace(n=20000)
    carrier = extract_tpi(trace, BANDPASS)
    half = (BANDPASS.num_taps - 1) // 2
    assert carrier.delay == half
    # a steady carrier is masked on exactly the filter's edge samples
    mask = extract_phase(carrier).quality_mask
    assert not mask[:half].any()
    assert not mask[-half:].any()
    assert mask[half:-half].all()


def test_extract_tpi_rejects_too_short_trace():
    # shorter than twice the half-filter edge exclusion of 1000 samples
    trace = carrier_trace(n=1500)
    with pytest.raises(CalibrationQualityError):
        extract_tpi(trace, BANDPASS)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_extract_tpi_rejects_non_finite_coincidence(bad):
    # one bad sample used to poison the mean and read as a weak carrier everywhere
    trace = carrier_trace()
    trace.coincidence[1234] = bad
    with pytest.raises(CalibrationQualityError,
                       match="^coincidence channel holds non-finite samples$"):
        extract_tpi(trace, BANDPASS)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_extract_tpi_rejects_non_finite_reported_position(bad):
    # an infinite knot used to surface as a RuntimeWarning and then as a
    # misordered calibration map; it is named before any arithmetic on the axis
    trace = carrier_trace()
    trace.reported_d[30000] = bad
    with pytest.raises(CalibrationQualityError,
                       match="^trace holds non-finite reported positions$"):
        extract_tpi(trace, BANDPASS)


# ---------------------------------------------------------------------------
# phase extraction


def _hilbert_of_full_convolution(spectrum, nfft, delay, n):
    """The oracle: H of irfft(spectrum, nfft) by scipy.signal.hilbert, sliced at the delay."""
    return hilbert(irfft(spectrum, nfft))[delay:delay + n].imag


# n + taps - 1 gives an odd nfft (1125) and even ones (1350, 6144, 10000)
QUADRATURE_CASES = [(1000, 125), (1001, 301), (4096, 2001), (7919, 2001)]


def test_quadrature_cases_cover_even_and_odd_nfft():
    # the quadrature zeroes the Nyquist bin for even nfft only
    parities = {next_fast_len(n + taps - 1, real=True) % 2 for n, taps in QUADRATURE_CASES}
    assert parities == {0, 1}


@pytest.mark.parametrize("n, num_taps", QUADRATURE_CASES)
def test_quadrature_matches_hilbert_of_the_full_convolution(n, num_taps):
    rng = np.random.default_rng(n)
    x, taps = rng.normal(size=n), rng.normal(size=num_taps)
    spectrum, nfft = _filtered_spectrum(taps, x)
    delay = (num_taps - 1) // 2
    oracle = _hilbert_of_full_convolution(spectrum, nfft, delay, n)
    got = _quadrature(spectrum, nfft, delay, n)
    assert np.max(np.abs(got - oracle)) <= 1e-12 * np.max(np.abs(oracle))


def test_quadrature_matches_hilbert_on_default_carrier():
    config = default_config()
    trace = synthesize(config)
    carrier = extract_tpi(trace, config.pipeline.bandpass)
    taps = design_bandpass(config.pipeline.bandpass, trace.spacing)
    spectrum, nfft = _filtered_spectrum(taps, trace.coincidence - trace.coincidence.mean())
    assert nfft % 2 == 0
    delay, n = carrier.delay, trace.n_samples
    assert np.array_equal(carrier.values, irfft(spectrum, nfft)[delay:delay + n])
    _assert_same_bytes(carrier.quadrature, _quadrature(spectrum, nfft, delay, n))
    oracle = _hilbert_of_full_convolution(spectrum, nfft, delay, n)
    assert np.max(np.abs(carrier.quadrature - oracle)) <= 1e-12 * np.max(np.abs(oracle))


@pytest.mark.parametrize("config, run", [("default", 0), ("default", 1), ("default", 2),
                                         ("multilayer", 0)])
def test_phase_from_filtered_spectrum_within_5_mrad_of_hilbert_of_values(config, run):
    # the quadrature is the Hilbert transform of the full convolution; the phase
    # it replaced took the analytic signal of the sliced carrier, a length-n
    # circular transform
    cfg = default_config() if config == "default" else load_config(MULTILAYER)
    trace = synthesize(cfg, run)
    carrier = extract_tpi(trace, cfg.pipeline.bandpass)
    taps = design_bandpass(cfg.pipeline.bandpass, trace.spacing)
    x = trace.coincidence - trace.coincidence.mean()
    assert np.array_equal(carrier.values, zero_phase_apply(taps, x))
    phase = extract_phase(carrier)
    before = _unwrap(np.angle(hilbert(carrier.values)))
    sel = phase.quality_mask
    assert sel.mean() > 0.9
    assert np.max(np.abs(phase.unwrapped_phase[sel] - before[sel])) <= 5e-3


def test_unwrap_bit_identical_to_numpy_on_default_carrier():
    config = default_config()
    x = extract_tpi(synthesize(config), config.pipeline.bandpass).values
    phase = np.angle(hilbert(x))
    # the carrier wraps at a few percent of its steps
    wraps = np.count_nonzero(np.abs(np.diff(phase)) >= math.pi)
    assert 0 < wraps < len(phase) // 10
    assert np.array_equal(_unwrap(phase), np.unwrap(phase))


@pytest.mark.parametrize("seed", range(4))
def test_unwrap_bit_identical_to_numpy_at_and_near_pi_steps(seed):
    rng = np.random.default_rng(seed)
    below, above = np.nextafter(math.pi, 0.0), np.nextafter(math.pi, 4.0)
    steps = rng.choice([math.pi, below, above, 0.5, 2.0, 7.0], 2000)
    walk = np.cumsum(steps * rng.choice([-1.0, 1.0], 2000))
    # multiples of pi / 2 step by exactly +-pi at many samples, where
    # np.unwrap's tie rule (keep the sign of the step) decides
    ties = (0.5 * math.pi) * rng.integers(-4, 5, 2000)
    assert np.any(np.diff(ties) == math.pi) and np.any(np.diff(ties) == -math.pi)
    for phase in (walk, ties, np.angle(np.exp(1j * walk))):
        assert np.array_equal(_unwrap(phase), np.unwrap(phase))


def test_unwrap_matches_numpy_across_nan_and_on_short_input():
    phase = np.array([0.0, 3.0, -3.0, np.nan, 1.0, -2.5, 2.5])
    assert np.array_equal(_unwrap(phase), np.unwrap(phase), equal_nan=True)
    for n in (0, 1, 2):
        phase = np.array([3.0, -3.0])[:n]
        got = _unwrap(phase)
        assert got.shape == (n,) and np.array_equal(got, np.unwrap(phase))
        assert not np.shares_memory(got, phase)


def test_phase_slope_matches_carrier_frequency():
    trace = carrier_trace()
    phase = extract_phase(extract_tpi(trace, BANDPASS))
    sel = phase.quality_mask
    slope = float(np.polyfit(trace.reported_d[sel], phase.unwrapped_phase[sel], 1)[0])
    assert abs(slope / (2.0 * math.pi * CARRIER_FREQ) - 1.0) < 1e-4


def test_phase_unharmed_by_amplitude_modulation():
    trace = carrier_trace(am=(0.3, 50e-6))
    phase = extract_phase(extract_tpi(trace, BANDPASS))
    sel = phase.quality_mask
    d = trace.reported_d[sel]
    expected = 2.0 * math.pi * CARRIER_FREQ * d
    resid = phase.unwrapped_phase[sel] - expected
    resid -= resid.mean()
    assert np.max(np.abs(resid)) < 0.01   # radians


def test_phase_masks_low_amplitude_stretch():
    n = 60000
    d = np.arange(n) * SPACING
    dip = 1.0 - 0.97 * np.exp(-0.5 * ((d - 150e-6) / 2.0e-6) ** 2)
    coincidence = 4000.0 + 500.0 * dip * np.cos(2.0 * math.pi * CARRIER_FREQ * d)
    trace = ScanTrace(reported_d=d, intensity=np.full(n, 1000.0),
                      coincidence=coincidence, spacing=SPACING)
    carrier = extract_tpi(trace, BANDPASS)
    phase = extract_phase(carrier)
    center = int(round(150e-6 / SPACING))
    assert not phase.quality_mask[center]
    # the filter edges are masked too, so the mask alone selects usable phase
    assert not phase.quality_mask[:carrier.delay].any()
    assert not phase.quality_mask[-carrier.delay:].any()
    assert phase.quality_mask[center - 4000]
    assert phase.quality_mask[center + 4000]


def test_phase_raises_when_carrier_mostly_weak():
    n = 60000
    d = np.arange(n) * SPACING
    dip = 1.0 - 0.95 * (np.abs(d - 150e-6) < 50e-6)
    coincidence = 4000.0 + 500.0 * dip * np.cos(2.0 * math.pi * CARRIER_FREQ * d)
    trace = ScanTrace(reported_d=d, intensity=np.full(n, 1000.0),
                      coincidence=coincidence, spacing=SPACING)
    with pytest.raises(CalibrationQualityError):
        extract_phase(extract_tpi(trace, BANDPASS))


# ---------------------------------------------------------------------------
# calibration map


def test_identity_stage_correction_is_constant(identity_trace):
    phase = extract_phase(extract_tpi(identity_trace, BANDPASS))
    cal = build_calibration(phase, identity_trace.reported_d, PUMP)
    corr = cal.calibrated - cal.reported
    assert corr.max() - corr.min() < 0.5e-9


def test_distorted_stage_round_trip_under_1nm(distorted_trace):
    phase = extract_phase(extract_tpi(distorted_trace, BANDPASS))
    cal = build_calibration(phase, distorted_trace.reported_d, PUMP)
    true_d = distorted_trace.truth.true_d
    # compare at the knots: reported knots are a subset of the scan grid
    knot_idx = np.searchsorted(distorted_trace.reported_d, cal.reported)
    resid = cal.calibrated - true_d[knot_idx]
    resid -= resid.mean()
    rms = math.sqrt(float(np.mean(resid ** 2)))
    assert rms < 1e-9
    # and the raw axis really was distorted at the few-hundred-nm scale
    raw = distorted_trace.reported_d[knot_idx] - true_d[knot_idx]
    assert np.abs(raw - raw.mean()).max() > 50e-9


def test_scale_error_recovered_in_map_slope():
    stage = StageModel(velocity=500e-9, sample_rate=100.0, scale_error=1e-3)
    trace = simulate(stage=stage)
    phase = extract_phase(extract_tpi(trace, BANDPASS))
    cal = build_calibration(phase, trace.reported_d, PUMP)
    slope = float(np.polyfit(cal.reported, cal.calibrated, 1)[0])
    assert abs(slope - 1.001) < 1e-5


def test_map_anchor_pins_midpoint(identity_trace):
    phase = extract_phase(extract_tpi(identity_trace, BANDPASS))
    cal = build_calibration(phase, identity_trace.reported_d, PUMP)
    anchor = cal.quality["anchor_reported_d"]
    k = int(np.argmin(np.abs(cal.reported - anchor)))
    assert abs(cal.reported[k] - anchor) < SPACING / 2
    assert abs(cal.calibrated[k] - cal.reported[k]) < 1e-15


def test_map_rejects_nonmonotone_knots():
    x = np.linspace(0.0, 1.0, 100)
    y = x.copy()
    y[50] = y[49] - 1e-6
    with pytest.raises(CalibrationQualityError):
        CalibrationMap(reported=x, calibrated=y)
    with pytest.raises(CalibrationQualityError):
        CalibrationMap(reported=y, calibrated=x)


def test_map_linear_extrapolation():
    x = np.linspace(1.0, 2.0, 500)
    cal = CalibrationMap(reported=x, calibrated=2.0 * x + 3.0)
    probe = np.array([0.5, 2.5])
    out = cal(probe)
    assert np.max(np.abs(out - (2.0 * probe + 3.0))) < 1e-9
    lo, hi = cal.domain
    for scalar in (lo - 1e-6, hi + 1e-6):  # a scalar extrapolates as a one-element array does
        assert np.ndim(cal(scalar)) == 0
        assert cal(scalar) == cal(np.array([scalar]))[0]


def test_build_calibration_rejects_phase_reversal():
    n = 30000
    d = np.arange(n) * SPACING
    phi = 2.0 * math.pi * CARRIER_FREQ * d
    phi[15000:] -= 10.0        # simulated unwrap failure
    phase = PhaseTrace(unwrapped_phase=phi, quality_mask=np.ones(n, dtype=bool))
    with pytest.raises(CalibrationQualityError):
        build_calibration(phase, d, PUMP)


def test_build_calibration_rejects_a_reported_axis_of_another_length():
    n = 30000
    d = np.arange(n) * SPACING
    phase = PhaseTrace(unwrapped_phase=2.0 * math.pi * CARRIER_FREQ * d,
                       quality_mask=np.ones(n, dtype=bool))
    with pytest.raises(ConfigError, match="^phase and reported axis must match in length$"):
        build_calibration(phase, d[1:], PUMP)


# ---------------------------------------------------------------------------
# resampling


def test_resample_identity_is_near_noop(identity_trace):
    phase = extract_phase(extract_tpi(identity_trace, BANDPASS))
    cal = build_calibration(phase, identity_trace.reported_d, PUMP)
    record = resample_intensity(identity_trace, cal)
    # identity calibration: the resampled grid lands on the original one
    sel = (record.positions > 20e-6) & (record.positions < 280e-6)
    idx = np.round(record.positions[sel] / SPACING).astype(int)
    resid = record.intensity[sel] - identity_trace.intensity[idx]
    assert np.max(np.abs(resid)) / identity_trace.intensity.max() < 1e-5
    assert record.quality["extrapolated_fraction"] < 0.05


def test_resample_restores_fringe_frequency(distorted_trace):
    def local_fringe_frequency(values, positions, center, halfwidth):
        sel = (positions > center - halfwidth) & (positions < center + halfwidth)
        seg = values[sel] - values[sel].mean()
        phase = np.unwrap(np.angle(hilbert(seg)))
        inner = slice(len(seg) // 4, 3 * len(seg) // 4)
        return float(np.polyfit(positions[sel][inner], phase[inner], 1)[0]) / (2.0 * math.pi)

    target = 2.0 / LAMBDA_0
    raw = local_fringe_frequency(distorted_trace.intensity,
                                 distorted_trace.reported_d, 9.886e-6, 3e-6)
    assert abs(raw / target - 1.0) > 5e-4      # distorted axis lies

    phase = extract_phase(extract_tpi(distorted_trace, BANDPASS))
    cal = build_calibration(phase, distorted_trace.reported_d, PUMP)
    record = resample_intensity(distorted_trace, cal)
    fixed = local_fringe_frequency(record.intensity, record.positions, 9.886e-6, 3e-6)
    assert abs(fixed / target - 1.0) < 1e-4


def test_resample_grid_step_override(identity_trace):
    phase = extract_phase(extract_tpi(identity_trace, BANDPASS))
    cal = build_calibration(phase, identity_trace.reported_d, PUMP)
    record = resample_intensity(identity_trace, cal, grid_step=2.5e-9)
    steps = np.diff(record.positions)
    assert np.allclose(steps, 2.5e-9, rtol=1e-9)
    assert record.grid_step == 2.5e-9
    for step in (math.nan, math.inf, 0.0, -1.0):
        with pytest.raises(ConfigError, match=f"^grid step must be a finite positive number, "
                                              f"got {step}$"):
            resample_intensity(identity_trace, cal, grid_step=step)


def _assert_same_bytes(got, want):
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()


def _bessel_slopes(x, y):
    # the derivative at each knot of the parabola through it and its two
    # neighbours, and at each end of the end parabola
    dx = np.diff(x)
    m = np.diff(y) / dx
    s = np.empty_like(y)
    s[1:-1] = (dx[1:] * m[:-1] + dx[:-1] * m[1:]) / (dx[:-1] + dx[1:])
    s[0] = ((2 * dx[0] + dx[1]) * m[0] - dx[0] * m[1]) / (dx[0] + dx[1])
    s[-1] = ((2 * dx[-1] + dx[-2]) * m[-1] - dx[-1] * m[-2]) / (dx[-2] + dx[-1])
    return s


def _oracle(x, y, grid):
    return CubicHermiteSpline(x, y, _bessel_slopes(x, y))(grid)


@pytest.mark.parametrize("config, run, grid_step", [
    (default_config(), 0, None),
    (default_config(), 1, None),
    (default_config(), 2, None),
    (load_config(MULTILAYER), 0, None),
    (replace(default_config(), noise=NOISE_OFF), 0, None),
    (default_config(), 0, 2.5e-9),
])
def test_resample_bit_identical_to_cubic_spline_on_pipeline_records(config, run, grid_step):
    trace = synthesize(config, run)
    phase = extract_phase(extract_tpi(trace, config.pipeline.bandpass))
    cal = build_calibration(phase, trace.reported_d, config.pump)
    record = resample_intensity(trace, cal, grid_step=grid_step)
    want = _oracle(cal(trace.reported_d), trace.intensity, record.positions)
    _assert_same_bytes(record.intensity, want)


def _random_knots(n, seed):
    rng = np.random.default_rng(1000 * n + seed)
    x = 1e-4 * rng.normal() + np.cumsum(rng.uniform(1e-9, 2e-8, n))
    return x, rng.normal(1000.0, 300.0, n)


# density is uniform grid samples per mean knot step, overhang how many knot
# steps the grid runs past each end. At density 2, 20001 knots make a grid of
# about 100 000 samples: a dozen evaluation blocks, the last one partial, so
# every block seam is checked on non-uniform knots. Density 16 makes blocks
# that span a few hundred knots; density 1/16 on 200 001 knots, with the knots
# probed only every 4096th, a block that spans over 100 000
@pytest.mark.parametrize("n, density, overhang", [
    *(pytest.param(n, 2, 0, id=str(n)) for n in (4, 5, 3001, 20001)),
    pytest.param(20001, 16, 0, id="20001-dense"),
    pytest.param(200001, 1 / 16, 0, id="200001-sparse"),
    pytest.param(20001, 2, 3, id="20001-overhang"),
])
@pytest.mark.parametrize("seed", range(3))
def test_bessel_hermite_bit_identical_to_cubic_hermite_on_random_knots(n, density, overhang,
                                                                       seed):
    x, y = _random_knots(n, seed)
    step = (x[-1] - x[0]) / (density * n + 7)
    pad = overhang * (x[-1] - x[0]) / (n - 1)
    probed = x if density >= 1 else x[np.r_[0:n:4096, -1]]
    grid = np.concatenate((
        probed,                                       # on the knots, both ends included
        np.nextafter(probed, -np.inf), np.nextafter(probed, np.inf),
        [x[0] - 1e-9 * step, x[-1] + 1e-9 * step],    # the uniform grid's overhang
        np.arange(math.ceil((x[0] - pad) / step), math.floor((x[-1] + pad) / step) + 1) * step,
    ))
    grid.sort()
    _assert_same_bytes(_bessel_hermite(x, np.diff(x), y, grid), _oracle(x, y, grid))


def test_bessel_hermite_sums_from_zero_as_ppoly_does():
    # every term at knot 0 is -0.0; PPoly's 0.0 + ... makes the value +0.0
    x = np.arange(5.0)
    y = np.array([-0.0, -0.2, -0.8, -1.5, 0.0])
    want = _oracle(x, y, x)
    assert not np.signbit(want[0])
    _assert_same_bytes(_bessel_hermite(x, np.diff(x), y, x), want)


def test_bessel_hermite_working_memory_stays_below_six_grids():
    # evaluated block by block, the interpolant holds no grid-length coefficient
    # array; the bound, 6 x grid.nbytes, was fixed before the first run
    x, y = _random_knots(60000, 0)
    dx = np.diff(x)
    step = 5e-9
    grid = np.arange(math.ceil(x[0] / step), math.floor(x[-1] / step) + 1) * step
    tracemalloc.start()
    try:
        _bessel_hermite(x, dx, y, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * grid.nbytes


def test_bessel_slopes_are_numpys_second_order_gradient():
    # the same parabola derivatives by other arithmetic: np.gradient weights the
    # values, not their differences, so the two differ by rounding alone; the
    # bound, 64 eps of the largest slope, was fixed before the first run
    trace = synthesize(default_config(), 0)
    cal = build_calibration(extract_phase(extract_tpi(trace, BANDPASS)), trace.reported_d, PUMP)
    cases = [_random_knots(n, seed) for n in (3, 4, 5, 3001) for seed in range(3)]
    for x, y in cases + [(cal(trace.reported_d), trace.intensity)]:
        s = _bessel_slopes(x, y)
        tol = 64 * np.finfo(float).eps * np.abs(s).max()
        assert np.abs(s - np.gradient(y, x, edge_order=2)).max() <= tol


def test_bessel_hermite_reproduces_a_quadratic_on_non_uniform_knots():
    # each knot's parabola is the quadratic itself, so slopes and cubic are exact
    rng = np.random.default_rng(29)
    x = np.cumsum(rng.uniform(0.1, 1.0, 40))
    quadratic = np.polynomial.Polynomial([3.0, -2.0, 0.5])
    grid = np.linspace(x[0], x[-1], 997)
    got = _bessel_hermite(x, np.diff(x), quadratic(x), grid)
    tol = 64 * np.finfo(float).eps * np.abs(quadratic(x)).max()
    assert np.abs(got - quadratic(grid)).max() <= tol


def _identity_map(start, stop):
    knots = np.linspace(start, stop, 8)
    return CalibrationMap(reported=knots, calibrated=knots.copy())


def _bare_trace(reported_d, intensity):
    return ScanTrace(reported_d=reported_d, intensity=intensity,
                     coincidence=np.zeros(len(reported_d)), spacing=1e-8)


def test_resample_rejects_non_finite_intensity():
    d = np.arange(100) * 1e-8
    intensity = np.full(100, 1000.0)
    intensity[40] = np.nan
    with pytest.raises(CalibrationQualityError, match="intensity channel holds non-finite"):
        resample_intensity(_bare_trace(d, intensity), _identity_map(0.0, 1e-6))


def test_resample_rejects_non_finite_reported_position():
    d = np.arange(100) * 1e-8
    d[40] = np.inf
    with pytest.raises(CalibrationQualityError, match="trace holds non-finite reported positions"):
        resample_intensity(_bare_trace(d, np.full(100, 1000.0)), _identity_map(0.0, 1e-6))


def test_resample_rejects_fewer_than_three_samples():
    d = np.array([0.0, 1e-6])
    with pytest.raises(CalibrationQualityError,
                       match="^trace of 2 samples; the interpolant needs 3$"):
        resample_intensity(_bare_trace(d, np.full(2, 1000.0)), _identity_map(0.0, 1e-6),
                           grid_step=1e-8)


def test_resample_three_samples_bit_identical_to_cubic_hermite():
    # three knots make the interpolant the parabola through them; 200 grid steps
    d = np.array([0.0, 1e-6, 2e-6])
    intensity = np.array([1000.0, 1300.0, 900.0])
    cal = _identity_map(0.0, 2e-6)
    record = resample_intensity(_bare_trace(d, intensity), cal, grid_step=1e-8)
    assert record.n_samples == 201
    _assert_same_bytes(record.intensity, _oracle(cal(d), intensity, record.positions))


def test_resample_rejects_subnormal_position_steps():
    d = np.arange(100) * 1e-8
    d[1] = d[0] + 5e-324
    with pytest.raises(CalibrationQualityError, match="not increasing by a normal step"):
        resample_intensity(_bare_trace(d, np.full(100, 1000.0)), _identity_map(0.0, 1e-6))
