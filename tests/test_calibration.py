"""Carrier filtering, phase extraction, axis calibration, resampling."""

from __future__ import annotations

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft import next_fast_len, rfft
from scipy.signal import fftconvolve, hilbert

from qolcr.calibration import (
    CalibrationMap,
    FilteredCarrier,
    PhaseTrace,
    _kernel_spectrum,
    _phase_from_crossings,
    _unwrap,
    analytic_from_spectrum,
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
SPECTRUM = Spectrum.from_wavelength(LAMBDA_0, 30e-9, total_power=1e6)


def simulate(stage=None):
    if stage is None:
        stage = StageModel(velocity=500e-9, sample_rate=100.0)
    return simulate_scan(SAMPLE, SPECTRUM, PUMP, stage, noise=NOISE_OFF,
                         scan_range=(0.0, 300e-6))


@pytest.fixture(scope="module")
def identity_trace():
    return simulate()


@pytest.fixture(scope="module")
def distorted_trace():
    stage = StageModel(velocity=500e-9, sample_rate=100.0,
                       scale_error=1e-3, periodic_amplitude=100e-9,
                       periodic_period=50e-6, drift_step=2e-10, seed=77)
    return simulate(stage=stage)


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


def test_extract_tpi_passes_pure_carrier():
    trace = carrier_trace()
    carrier = extract_tpi(trace, BANDPASS)
    d = trace.reported_d
    truth = 500.0 * np.cos(2.0 * math.pi * CARRIER_FREQ * d + 0.3)
    sel = carrier.valid
    resid = carrier.values[sel] - truth[sel]
    rel = math.sqrt(float(np.mean(resid ** 2))) / math.sqrt(float(np.mean(truth[sel] ** 2)))
    assert rel < 0.01


def test_extract_tpi_from_full_coincidence_model(identity_trace):
    carrier = extract_tpi(identity_trace, BANDPASS)
    truth = identity_trace.truth.pair_carrier
    sel = carrier.valid
    resid = carrier.values[sel] - truth[sel]
    rel = math.sqrt(float(np.mean(resid ** 2))) / math.sqrt(float(np.mean(truth[sel] ** 2)))
    assert rel < 0.02


def test_extract_tpi_edge_exclusion_width():
    trace = carrier_trace(n=20000)
    carrier = extract_tpi(trace, BANDPASS)
    half = (BANDPASS.num_taps - 1) // 2
    assert not carrier.valid[:half].any()
    assert not carrier.valid[-half:].any()
    assert carrier.valid[half:-half].all()


def test_extract_tpi_rejects_too_short_trace():
    # shorter than twice the half-filter edge exclusion of 1000 samples
    trace = carrier_trace(n=1500)
    with pytest.raises(CalibrationQualityError):
        extract_tpi(trace, BANDPASS)


# ---------------------------------------------------------------------------
# phase extraction


@pytest.mark.parametrize("n", [1000, 1001, 4096, 7919])
def test_analytic_from_spectrum_matches_hilbert(n):
    x = np.random.default_rng(n).normal(size=n)
    assert np.array_equal(analytic_from_spectrum(rfft(x), n), hilbert(x))


def test_analytic_from_spectrum_matches_hilbert_on_default_carrier():
    config = default_config()
    carrier = extract_tpi(synthesize(config), config.pipeline.bandpass)
    x = carrier.values
    assert np.array_equal(analytic_from_spectrum(rfft(x), len(x)), hilbert(x))


def test_unwrap_bit_identical_to_numpy_on_default_carrier():
    config = default_config()
    x = extract_tpi(synthesize(config), config.pipeline.bandpass).values
    phase = np.angle(analytic_from_spectrum(rfft(x), len(x)))
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
    slope = float(np.polyfit(phase.reported_d[sel], phase.unwrapped_phase[sel], 1)[0])
    assert abs(slope / (2.0 * math.pi * CARRIER_FREQ) - 1.0) < 1e-4


def test_phase_unharmed_by_amplitude_modulation():
    trace = carrier_trace(am=(0.3, 50e-6))
    phase = extract_phase(extract_tpi(trace, BANDPASS))
    sel = phase.quality_mask
    d = phase.reported_d[sel]
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
    assert not phase.quality_mask[~carrier.valid].any()
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


def test_crossing_phase_agrees_with_analytic():
    trace = carrier_trace(am=(0.1, 70e-6))
    carrier = extract_tpi(trace, BANDPASS)
    analytic = extract_phase(carrier, method="analytic")
    crossings = extract_phase(carrier, method="crossings")
    sel = analytic.quality_mask & crossings.quality_mask
    slope_a = float(np.polyfit(analytic.reported_d[sel], analytic.unwrapped_phase[sel], 1)[0])
    slope_c = float(np.polyfit(crossings.reported_d[sel], crossings.unwrapped_phase[sel], 1)[0])
    assert abs(slope_c / slope_a - 1.0) < 1e-4
    diff = analytic.unwrapped_phase[sel] - crossings.unwrapped_phase[sel]
    diff -= diff.mean()
    assert math.sqrt(float(np.mean(diff ** 2))) < 0.05


def _reference_crossing_amplitude(x):
    """The per-block list comprehension the vectorised amplitude replaced."""
    signs = np.sign(x)
    signs[signs == 0] = 1
    idx = np.nonzero(np.diff(signs) != 0)[0]
    pos = idx + x[idx] / (x[idx] - x[idx + 1])
    amp_val = np.array([
        np.abs(x[int(a):max(int(a) + 1, int(b) + 1)]).max()
        for a, b in zip(idx[:-1], idx[1:] + 1)
    ])
    return np.interp(np.arange(len(x), dtype=float), 0.5 * (pos[:-1] + pos[1:]), amp_val)


def _bare_carrier(values):
    return FilteredCarrier(values=values, valid=np.ones(len(values), dtype=bool),
                           reported_d=np.arange(len(values)) * SPACING)


@pytest.mark.parametrize("config", ["default", "multilayer"])
@pytest.mark.parametrize("run", range(4))
def test_crossing_amplitude_matches_block_loop_on_study_carriers(config, run):
    cfg = default_config() if config == "default" else load_config(MULTILAYER)
    carrier = extract_tpi(synthesize(cfg, run), cfg.pipeline.bandpass)
    _, amplitude = _phase_from_crossings(carrier)
    assert np.array_equal(amplitude, _reference_crossing_amplitude(carrier.values))


def test_crossing_amplitude_matches_block_loop_with_exact_zeros():
    k = np.arange(400)
    x = np.round(3.0 * (1.0 + k / 400) * np.sin(2.0 * math.pi * k / 20))
    x[95:106] = 0.0                          # a run of zeros across a whole half-period
    assert x[-2] < 0 and x[-1] < 0
    x[-1] = -9.0                             # beyond the last block: no block may reach it
    assert np.count_nonzero(x == 0) > 40     # zeros take the signs == 0 branch
    _, amplitude = _phase_from_crossings(_bare_carrier(x))
    assert np.array_equal(amplitude, _reference_crossing_amplitude(x))


def test_crossing_amplitude_matches_block_loop_with_crossing_at_the_end():
    k = np.arange(300)
    x = np.sin(2.0 * math.pi * k / 16 + 0.3)
    x[-1] = -5.0 * np.sign(x[-2])            # the last crossing sits at n - 2
    assert np.nonzero(np.diff(np.sign(x)))[0][-1] == len(x) - 2
    _, amplitude = _phase_from_crossings(_bare_carrier(x))
    assert np.array_equal(amplitude, _reference_crossing_amplitude(x))
    assert amplitude[-1] == 5.0              # the last block reaches sample n - 1


def test_phase_rejects_unknown_method():
    trace = carrier_trace(n=20000)
    carrier = extract_tpi(trace, BANDPASS)
    with pytest.raises(ConfigError):
        extract_phase(carrier, method="wavelet")


# ---------------------------------------------------------------------------
# calibration map


def test_identity_stage_correction_is_constant(identity_trace):
    phase = extract_phase(extract_tpi(identity_trace, BANDPASS))
    cal = build_calibration(phase, PUMP)
    corr = cal.correction()
    assert corr.max() - corr.min() < 0.5e-9


def test_distorted_stage_round_trip_under_1nm(distorted_trace):
    phase = extract_phase(extract_tpi(distorted_trace, BANDPASS))
    cal = build_calibration(phase, PUMP)
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
    cal = build_calibration(phase, PUMP)
    slope = float(np.polyfit(cal.reported, cal.calibrated, 1)[0])
    assert abs(slope - 1.001) < 1e-5


def test_map_anchor_pins_midpoint(identity_trace):
    phase = extract_phase(extract_tpi(identity_trace, BANDPASS))
    cal = build_calibration(phase, PUMP)
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


def test_build_calibration_rejects_phase_reversal():
    n = 30000
    d = np.arange(n) * SPACING
    phi = 2.0 * math.pi * CARRIER_FREQ * d
    phi[15000:] -= 10.0        # simulated unwrap failure
    phase = PhaseTrace(
        unwrapped_phase=phi,
        amplitude=np.ones(n),
        quality_mask=np.ones(n, dtype=bool),
        reported_d=d,
    )
    with pytest.raises(CalibrationQualityError):
        build_calibration(phase, PUMP)


# ---------------------------------------------------------------------------
# resampling


def test_resample_identity_is_near_noop(identity_trace):
    phase = extract_phase(extract_tpi(identity_trace, BANDPASS))
    cal = build_calibration(phase, PUMP)
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
    cal = build_calibration(phase, PUMP)
    record = resample_intensity(distorted_trace, cal)
    fixed = local_fringe_frequency(record.intensity, record.positions, 9.886e-6, 3e-6)
    assert abs(fixed / target - 1.0) < 1e-4


def test_resample_grid_step_override(identity_trace):
    phase = extract_phase(extract_tpi(identity_trace, BANDPASS))
    cal = build_calibration(phase, PUMP)
    record = resample_intensity(identity_trace, cal, grid_step=2.5e-9)
    steps = np.diff(record.positions)
    assert np.allclose(steps, 2.5e-9, rtol=1e-9)
    assert record.quality["grid_step"] == 2.5e-9
    with pytest.raises(ConfigError):
        resample_intensity(identity_trace, cal, grid_step=-1.0)
