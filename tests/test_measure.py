"""Separation estimation: autocorrelation, envelopes, peak fits, refinement."""

from __future__ import annotations

import copy
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft import ifft, next_fast_len, rfft
from scipy.signal import hilbert

from qolcr.calibration import (
    CalibratedRecord,
    build_calibration,
    extract_phase,
    extract_tpi,
    resample_intensity,
)
from qolcr.config import DEFAULT_CONFIG, default_config, load_config, parse_config
from qolcr import experiments
from qolcr.experiments import calibrate_trace, synthesize
from qolcr.experiments import run_pipeline as run_seeded
from qolcr.errors import ConfigError, PeakCountError, PeakFitError, PipelineQualityError
from qolcr.measure import (
    BAND_HALFWIDTH,
    CLUSTER_WINDOW,
    MIN_CLUSTER_SAMPLES,
    MIN_OVERLAP,
    Autocorrelogram,
    _refine_cluster,
    _zero_lag_halfwidth,
    autocorrelate,
    estimate_separations,
    parabolic_peak_fit,
)
from qolcr.model import PumpReference, Sample, Spectrum
from qolcr.scan import StageModel, simulate_scan

LAMBDA_0 = 810e-9
LAMBDA_P = 405e-9
TRUE_SEPARATION = 290.114e-6 - 9.886e-6
GRID = 5e-9
BANDPASS = default_config().pipeline.bandpass   # the carrier filter the pipeline runs
# the default count scales with noise.enabled false: expected counts per bin
NOISE_OFF = replace(default_config().noise, poisson_enabled=False)


def synthetic_record(n=4096, step=GRID, seed=11, packets=((3e-6, 900.0), (15e-6, 700.0))):
    """Uniform-grid record with Gaussian fringe packets over noisy counts."""
    rng = np.random.default_rng(seed)
    pos = np.arange(n) * step
    intensity = 5000.0 + rng.normal(0.0, 40.0, n)
    for center, amp in packets:
        env = np.exp(-0.5 * ((pos - center) / 2.0e-6) ** 2)
        intensity += amp * env * np.cos(4.0 * math.pi * pos / LAMBDA_0)
    return CalibratedRecord(positions=pos, intensity=intensity, grid_step=step)


def run_pipeline(sample_rate=100.0, grid_step=None):
    sample = Sample.from_pairs([(0.6, 9.886e-6), (0.6, 290.114e-6)])
    spectrum = Spectrum.from_wavelength(LAMBDA_0, 30e-9)
    pump = PumpReference(LAMBDA_P)
    stage = StageModel(velocity=500e-9, sample_rate=sample_rate)
    trace = simulate_scan(sample, spectrum, pump, stage, noise=NOISE_OFF,
                          scan_range=(0.0, 300e-6))
    carrier = extract_tpi(trace, BANDPASS)
    phase = extract_phase(carrier)
    calibration = build_calibration(phase, trace.reported_d, pump)
    return resample_intensity(trace, calibration, grid_step=grid_step)


@pytest.fixture(scope="module")
def standard_record():
    return run_pipeline()


@pytest.fixture(scope="module")
def standard_acorr(standard_record):
    return autocorrelate(standard_record)


# ---------------------------------------------------------------------------
# autocorrelate


def test_autocorrelate_matches_direct_sum_oracle():
    record = synthetic_record(n=4096)
    acorr = autocorrelate(record)

    x = record.intensity - record.intensity.mean()
    n = len(x)
    k_max = n - MIN_OVERLAP
    direct = np.empty(k_max + 1)
    for k in range(k_max + 1):
        direct[k] = np.dot(x[: n - k], x[k:])
    direct /= direct[0]

    assert len(acorr.values) == k_max + 1
    assert np.max(np.abs(acorr.values - direct)) < 1e-10


def test_autocorrelate_power_spectrum_operand_order():
    # oracle: |X|^2 formed as Re^2 + Im^2 in a real buffer, weighted one-sided
    # and taken through one forward real FFT whose kept bins are conjugated
    record = synthetic_record(n=4000)
    x = record.intensity - record.intensity.mean()
    nfft = next_fast_len(2 * len(x) - 1)
    spec = rfft(x, nfft)
    weighted = np.zeros(nfft)
    weighted[: len(spec)] = spec.real * spec.real + spec.imag * spec.imag
    weighted[1: (nfft + 1) // 2] *= 2.0
    analytic = np.conj(rfft(weighted)[: len(x) - MIN_OVERLAP + 1])
    analytic /= analytic[0].real
    analytic[0] = 1.0
    assert np.array_equal(autocorrelate(record).analytic, analytic)


def _complex_inverse_autocorrelation(intensity):
    """The analytic autocorrelation by one complex inverse FFT of the one-sided conj(X) X."""
    x = intensity - intensity.mean()
    nfft = next_fast_len(2 * len(x) - 1)
    spec = rfft(x, nfft)
    one_sided = np.zeros(nfft, dtype=complex)
    one_sided[: len(spec)] = np.conj(spec) * spec
    one_sided[1: (nfft + 1) // 2] *= 2.0
    analytic = ifft(one_sided)[: len(x) - MIN_OVERLAP + 1]
    analytic /= analytic[0].real
    analytic[0] = 1.0
    return analytic


@pytest.mark.parametrize("config", [
    default_config(),
    load_config(Path(__file__).resolve().parents[1] / "perfbench" / "multilayer.json"),
], ids=["default", "multilayer"])
@pytest.mark.parametrize("run_index", [0, 1, 2])
def test_autocorrelate_matches_complex_inverse_on_pipeline_records(config, run_index):
    _, record = calibrate_trace(config, synthesize(config, run_index))
    got = autocorrelate(record).analytic
    assert np.max(np.abs(got - _complex_inverse_autocorrelation(record.intensity))) < 1e-14


def test_autocorrelate_pure_cosine_preserves_period():
    period = 20 * GRID
    n = 4000  # exactly 200 periods
    pos = np.arange(n) * GRID
    record = CalibratedRecord(
        positions=pos,
        intensity=100.0 + 10.0 * np.cos(2.0 * math.pi * pos / period),
        grid_step=GRID,
    )
    acorr = autocorrelate(record)
    center = 0
    assert acorr.values[center] == 1.0
    # the lag of the m-th maximum is m periods
    m = 40
    window = acorr.values[center + int(m * 20) - 5: center + int(m * 20) + 6]
    assert np.argmax(window) == 5
    # small-lag values follow the tapered cosine (1 - k/n) cos(2 pi k / 20)
    k = np.arange(200)
    expected = (1.0 - k / n) * np.cos(2.0 * math.pi * k / 20.0)
    got = acorr.values[center: center + 200]
    assert np.max(np.abs(got - expected)) < 5e-3


def test_autocorrelogram_normalized_bounded():
    acorr = autocorrelate(synthetic_record(seed=5))
    vals = acorr.values
    assert vals[0] == 1.0
    assert np.max(np.abs(vals)) <= 1.0 + 1e-9
    assert np.array_equal(acorr.envelope, np.abs(acorr.analytic))


def test_autocorrelate_rejects_short_and_flat_records():
    short = CalibratedRecord(
        positions=np.arange(64) * GRID,
        intensity=np.sin(np.arange(64.0)),
        grid_step=GRID,
    )
    with pytest.raises(PipelineQualityError,
                       match="^record of 64 samples too short to autocorrelate$"):
        autocorrelate(short)
    flat = CalibratedRecord(
        positions=np.arange(1024) * GRID,
        intensity=np.full(1024, 7.0),
        grid_step=GRID,
    )
    with pytest.raises(PipelineQualityError, match="^record has zero variance$"):
        autocorrelate(flat)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_autocorrelate_rejects_non_finite_intensity(bad):
    # named before the mean turns one bad sample into a RuntimeWarning and a
    # malformed zero-lag cluster; pyproject.toml turns any warning into an error
    record = synthetic_record()
    record.intensity[100] = bad
    with pytest.raises(PipelineQualityError, match="^record holds non-finite intensity samples$"):
        autocorrelate(record)


def test_autocorrelogram_validates_normalization():
    # A(k) is the inverse FFT of the power spectrum W, so A(0) = sum(W)
    power = np.zeros(51)
    with pytest.raises(ConfigError):  # no zero-lag value to normalize by
        Autocorrelogram(power=power, nfft=100, n_lags=51, grid_step=GRID)
    power[0] = 1.0
    power[10] = -0.5  # a negative bin lets |A(k)| exceed the zero-lag value
    with pytest.raises(ConfigError):
        Autocorrelogram(power=power, nfft=100, n_lags=51, grid_step=GRID)
    power[10] = 0.0
    acorr = Autocorrelogram(power=power, nfft=100, n_lags=51, grid_step=GRID)
    assert np.array_equal(acorr.lags, np.arange(51) * GRID)
    with pytest.raises(ConfigError):  # a complex spectrum is not a power spectrum
        Autocorrelogram(power=power.astype(complex), nfft=100, n_lags=51, grid_step=GRID)
    with pytest.raises(ConfigError):  # nor one of another FFT length
        Autocorrelogram(power=power, nfft=120, n_lags=51, grid_step=GRID)


def _band_oracle(acorr):
    """The full-length inverse FFT of the same band-weighted W, lags 0 .. n_lags - 1."""
    lo, weighted = acorr.band
    padded = np.zeros(acorr.nfft)
    padded[lo: lo + len(weighted)] = weighted
    return np.conj(rfft(padded))[: acorr.n_lags]


@pytest.mark.parametrize("config", [
    default_config(),
    load_config(Path(__file__).resolve().parents[1] / "perfbench" / "multilayer.json"),
], ids=["default", "multilayer"])
@pytest.mark.parametrize("run_index", [0, 1, 2])
def test_band_limited_readout_matches_full_length_inverse(config, run_index):
    # every D-th lag from one M-point FFT of the folded band, and every lag of
    # each cluster window the refinement reads, against one nfft-point inverse
    _, record = calibrate_trace(config, synthesize(config, run_index))
    acorr = autocorrelate(record)
    oracle = _band_oracle(acorr)
    tolerance = 1e-12 * abs(oracle[0])
    assert acorr.nfft % acorr.decimation == 0 and acorr.decimation > 1
    decimated = acorr.band_decimated
    assert np.max(np.abs(decimated - oracle[:: acorr.decimation])) < tolerance
    report = estimate_separations(acorr, config.pipeline.expected_peaks)
    w_half = report.quality["cluster_search"]["w_half"]
    for peak in report.peaks:
        window = acorr.window(peak.diagnostics["cluster_center"], CLUSTER_WINDOW * w_half)
        assert window.stop - window.start >= MIN_CLUSTER_SAMPLES
        assert np.max(np.abs(acorr.band_limited(window) - oracle[window])) < tolerance


def test_band_centres_on_the_carrier_and_spans_eleven_percent():
    # a cosine of period 20 samples puts its power at bin nfft / 20; the
    # weight is flat over the band's inner half and zero at its edges
    pos = np.arange(6000) * GRID
    acorr = autocorrelate(_record(100.0 + np.cos(2.0 * math.pi * pos / (20 * GRID))))
    lo, weighted = acorr.band
    bins = np.arange(lo, lo + len(weighted))
    center = float(bins @ weighted)
    assert abs(center - acorr.nfft / 20) < 0.5
    assert lo >= center * (1 - BAND_HALFWIDTH) and bins[-1] <= center * (1 + BAND_HALFWIDTH)
    assert len(weighted) >= 2 * BAND_HALFWIDTH * center - 1
    assert math.isclose(weighted.sum(), 1.0, rel_tol=1e-12)
    weight = weighted / acorr.power[bins]
    inner = np.abs(bins - center) <= 0.5 * BAND_HALFWIDTH * center
    assert np.allclose(weight[inner], weight[inner][0], rtol=1e-12)
    assert max(weight[0], weight[-1]) < 1e-2 * weight[inner][0]


def test_record_without_a_fringe_band_names_the_cause():
    # a slow ramp puts W's power at the lowest bins, where +-11% holds no bin
    acorr = autocorrelate(_record(100.0 + 0.01 * np.arange(4096.0)))
    with pytest.raises(PeakFitError, match="^the record's power spectrum has no fringe band"):
        estimate_separations(acorr, 1)


def test_run_pipeline_never_computes_the_full_band_autocorrelation(monkeypatch):
    made = []

    def recorded(record):
        made.append(autocorrelate(record))
        return made[-1]

    monkeypatch.setattr(experiments, "autocorrelate", recorded)
    run_seeded(default_config(), run_index=0)
    assert len(made) == 1
    assert not {"analytic", "envelope", "lags"} & set(vars(made[0]))


def test_analytic_autocorrelation_matches_hilbert_oracle():
    # the oracle transforms the even two-sided sequence A(-k_cap .. k_cap);
    # a record longer than the default keeps lags 0 .. k_cap / 2 well clear
    # of the oracle's own edge effects
    acorr = autocorrelate(synthetic_record(n=8192, seed=5))
    analytic = acorr.analytic
    v = acorr.values
    k_cap = len(v) - 1
    oracle = hilbert(np.concatenate([v[:0:-1], v])).imag[k_cap:]
    near = slice(0, k_cap // 2 + 1)
    peak = np.max(np.abs(analytic))
    assert np.max(np.abs(analytic.imag[near] - oracle[near])) < 1e-6 * peak


# ---------------------------------------------------------------------------
# envelope = |analytic|


def _record(intensity):
    pos = np.arange(len(intensity)) * GRID
    return CalibratedRecord(positions=pos, intensity=intensity, grid_step=GRID)


def _packet_acorr(envelope_sigma=2.0e-6, n_half=4000):
    """Autocorrelogram of one Gaussian fringe packet, lags 0..n_half.

    A packet of envelope width s / sqrt(2) correlates into a packet of
    width s at zero lag.
    """
    n = n_half + MIN_OVERLAP
    pos = (np.arange(n) - n // 2) * GRID
    packet = np.exp(-0.5 * (pos / (envelope_sigma / math.sqrt(2.0))) ** 2)
    acorr = autocorrelate(_record(100.0 + packet * np.cos(4.0 * math.pi * pos / LAMBDA_0)))
    return acorr, np.exp(-0.5 * (acorr.lags / envelope_sigma) ** 2)


def test_envelope_recovers_gaussian_packet():
    acorr, truth = _packet_acorr()
    window = acorr.window(0.0, 6.0e-6)
    env = np.abs(acorr.analytic[window])
    rms = math.sqrt(float(np.mean((env - truth[window]) ** 2)))
    assert rms < 0.01


def test_envelope_constant_cosine_is_flat_interior():
    # the lag-sum taper 1 - |k|/n stays under 0.005 across the window
    pos = np.arange(200_000) * GRID
    acorr = autocorrelate(_record(np.cos(4.0 * math.pi * pos / LAMBDA_0)))
    env = np.abs(acorr.analytic[acorr.window(0.0, 5.0e-6)])
    assert np.max(np.abs(env - 1.0)) < 0.01


def test_envelope_zero_signal_is_zero():
    # a lone spike correlates to nothing away from zero lag; only the
    # 1/k tails of its Hilbert transform reach the window
    intensity = np.zeros(20_000)
    intensity[0] = 1.0
    acorr = autocorrelate(_record(intensity))
    env = np.abs(acorr.analytic[acorr.window(10.0e-6, 2.0e-6)])
    assert np.max(env) < 1e-3


def test_envelope_rejects_window_outside_range():
    acorr, _ = _packet_acorr(n_half=1000)
    w_half = _zero_lag_halfwidth(acorr) * acorr.grid_step
    with pytest.raises(PeakFitError, match="edge"):
        _refine_cluster(acorr, 1.0e-3, w_half, 0.0)


# ---------------------------------------------------------------------------
# parabolic_peak_fit


def test_parabola_three_point_asymmetric():
    vertex, sigma, _ = parabolic_peak_fit([-1.0, 0.0, 1.0], [0.0, 3.0, 2.0])
    assert abs(vertex - 0.25) < 1e-12


def test_parabola_three_point_symmetric():
    vertex, _, _ = parabolic_peak_fit([-1.0, 0.0, 1.0], [1.0, 2.0, 1.0])
    assert abs(vertex) < 1e-12


def test_parabola_exact_quadratic_21_points():
    x = np.linspace(-1.0, 1.0, 21)
    y = -3.0 * (x - 0.2344) ** 2 + 7.0
    vertex, sigma, coeffs = parabolic_peak_fit(x, y)
    assert abs(vertex - 0.2344) < 1e-12
    assert sigma < 1e-9
    assert coeffs[0] < 0


def test_parabola_rejects_convex_and_exterior_and_short():
    with pytest.raises(PeakFitError):
        parabolic_peak_fit([-1.0, 0.0, 1.0], [2.0, 1.0, 2.0])
    with pytest.raises(PeakFitError):
        # concave but maximum far outside the window (vertex at x = 10.5)
        parabolic_peak_fit([0.0, 1.0, 2.0], [0.0, 1.0, 1.9])
    with pytest.raises(PeakFitError):
        parabolic_peak_fit([0.0, 1.0], [0.0, 1.0])
    with pytest.raises(PeakFitError):
        parabolic_peak_fit([0.0, 1.0, 2.0], [0.0, np.nan, 1.0])


@settings(max_examples=60, deadline=None)
@given(
    vertex=st.floats(-0.8, 0.8),
    curvature=st.floats(-50.0, -0.1),
    height=st.floats(0.1, 100.0),
)
def test_parabola_property_exact_recovery(vertex, curvature, height):
    x = np.linspace(-1.0, 1.0, 41)
    y = curvature * (x - vertex) ** 2 + height
    got, sigma, _ = parabolic_peak_fit(x, y)
    assert abs(got - vertex) < 1e-9
    assert sigma < 1e-6


# ---------------------------------------------------------------------------
# estimate_separations on the full pipeline


def test_noise_free_separation_recovery(standard_acorr):
    report = estimate_separations(standard_acorr, expected_count=1)
    assert len(report.peaks) == 1
    peak = report.peaks[0]
    assert abs(peak.separation - TRUE_SEPARATION) < 0.1e-9
    assert not peak.outlier_flag
    assert abs(peak.envelope_vertex - TRUE_SEPARATION) < LAMBDA_0 / 4
    assert abs(peak.diagnostics["carrier_period"] - LAMBDA_0 / 2) < 1e-9
    assert peak.uncertainty < 1e-9


def test_forced_half_fringe_offset_is_flagged(standard_acorr):
    report = estimate_separations(standard_acorr, expected_count=1,
                                  refinement_offset=LAMBDA_0 / 2)
    peak = report.peaks[0]
    assert peak.outlier_flag
    shift = peak.separation - TRUE_SEPARATION
    assert abs(abs(shift) - LAMBDA_0 / 2) < 2e-9


def test_expected_count_below_one_is_rejected(standard_acorr):
    for count in (0, -1):
        with pytest.raises(ConfigError, match="expected_count must be at least 1"):
            estimate_separations(standard_acorr, expected_count=count)


def test_single_surface_record_has_no_cluster():
    sample = Sample.from_pairs([(0.6, 150e-6)])
    spectrum = Spectrum.from_wavelength(LAMBDA_0, 30e-9)
    pump = PumpReference(LAMBDA_P)
    stage = StageModel(velocity=500e-9, sample_rate=100.0)
    trace = simulate_scan(sample, spectrum, pump, stage, noise=NOISE_OFF,
                          scan_range=(0.0, 300e-6))
    carrier = extract_tpi(trace, BANDPASS)
    calibration = build_calibration(extract_phase(carrier), trace.reported_d, pump)
    record = resample_intensity(trace, calibration)
    acorr = autocorrelate(record)
    with pytest.raises(PeakCountError):
        estimate_separations(acorr, expected_count=1)


def test_white_noise_zero_lag_is_too_narrow_for_a_cluster_window():
    acorr = autocorrelate(synthetic_record(packets=()))
    with pytest.raises(PeakFitError, match="counting noise dominates"):
        _zero_lag_halfwidth(acorr)


def test_noise_swamped_record_lands_within_5_nm():
    # at singles_scale 100 uncorrelated counting noise dominates lag 0 of the
    # full-band autocorrelation, whose zero-lag cluster shrinks to a few lags;
    # the band-limited one keeps its ~1340-lag half-width
    raw = copy.deepcopy(DEFAULT_CONFIG)
    raw["noise"]["singles_scale"] = 100.0
    peak = run_seeded(parse_config(raw), run_index=0).peaks[0]
    assert not peak.outlier_flag
    assert abs(peak.separation - TRUE_SEPARATION) < 5e-9


def test_report_is_sorted_and_json_ready(standard_acorr):
    report = estimate_separations(standard_acorr, expected_count=1)
    assert report.separations == sorted(report.separations)
    doc = json.dumps(report.to_dict(), sort_keys=True)
    parsed = json.loads(doc)
    assert set(parsed) == {"peaks", "quality", "metadata"}
    assert len(parsed["peaks"]) == 1
    assert set(parsed["peaks"][0]) == {
        "separation_m", "envelope_vertex_m", "uncertainty_m", "outlier", "diagnostics"}
    assert parsed["peaks"][0]["outlier"] is False


# ---------------------------------------------------------------------------
# invariances of the full estimator


def _scaled(record, alpha=1.0, offset=0.0, reverse=False):
    intensity = record.intensity * alpha + offset
    if reverse:
        intensity = intensity[::-1].copy()
    return CalibratedRecord(
        positions=record.positions.copy(),
        intensity=intensity,
        grid_step=record.grid_step,
        metadata=dict(record.metadata),
        quality=dict(record.quality),
    )


def test_amplitude_scaling_power_of_two_is_bitwise_invariant(standard_record):
    base = estimate_separations(autocorrelate(standard_record), 1)
    scaled = estimate_separations(autocorrelate(_scaled(standard_record, alpha=2.0)), 1)
    assert scaled.separations == base.separations
    assert scaled.peaks[0].envelope_vertex == base.peaks[0].envelope_vertex


def test_amplitude_scaling_general_alpha(standard_record):
    base = estimate_separations(autocorrelate(standard_record), 1)
    scaled = estimate_separations(autocorrelate(_scaled(standard_record, alpha=1.7)), 1)
    assert abs(scaled.separations[0] - base.separations[0]) < 1e-13


def test_dc_offset_invariance(standard_record):
    base = estimate_separations(autocorrelate(standard_record), 1)
    shifted = estimate_separations(
        autocorrelate(_scaled(standard_record, offset=1.0e4)), 1)
    assert abs(shifted.separations[0] - base.separations[0]) < 1e-12


def test_record_reversal_invariance(standard_record):
    base = estimate_separations(autocorrelate(standard_record), 1)
    rev = estimate_separations(
        autocorrelate(_scaled(standard_record, reverse=True)), 1)
    assert abs(rev.separations[0] - base.separations[0]) < 1e-12


def test_grid_density_consistency():
    coarse = estimate_separations(autocorrelate(run_pipeline(sample_rate=100.0)), 1)
    dense = estimate_separations(
        autocorrelate(run_pipeline(sample_rate=200.0, grid_step=2.5e-9)), 1)
    assert abs(dense.separations[0] - coarse.separations[0]) < 0.05e-9
