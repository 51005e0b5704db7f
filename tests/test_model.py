"""Closed-form model pieces against independent numeric oracles."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from qolcr.model import (
    SPECTRAL_POWER,
    SPEED_OF_LIGHT,
    PumpReference,
    Sample,
    Spectrum,
    StageModel,
    Surface,
    coherence_envelope,
    response_function,
    spectrum_density,
)

LAMBDA_0 = 810e-9
BANDWIDTH = 30e-9


def default_spectrum():
    return Spectrum.from_wavelength(LAMBDA_0, BANDWIDTH)


def surface_delay(z):
    """Round-trip delay of a lone surface at depth z, from Sample.delays."""
    return Sample.from_pairs([(0.5, z)]).delays[0]


def test_surface_delay_round_trip_one_meter():
    # 2 z / c with z = 1 m
    assert surface_delay(1.0) == pytest.approx(6.671281903963041e-09, rel=1e-15)


def test_surface_delay_zero():
    assert surface_delay(0.0) == 0.0


def test_sample_requires_sorted_positions():
    with pytest.raises(ValueError):
        Sample.from_pairs([(0.5, 10e-6), (0.5, 5e-6)])
    with pytest.raises(ValueError):
        Sample.from_pairs([(0.5, 10e-6), (0.5, 10e-6)])


def test_surface_reflectivity_bounds():
    with pytest.raises(ValueError):
        Surface(1.2, 0.0)
    with pytest.raises(ValueError):
        Surface(-0.1, 0.0)


def test_spectrum_fwhm_against_root_finding():
    # independent oracle: solve S(Omega) = S(0)/2 with brentq
    spec = default_spectrum()
    half = spectrum_density(spec, 0.0) / 2.0
    upper = brentq(
        lambda w: spectrum_density(spec, w) - half, 0.0, 6.0 * spec.sigma,
        rtol=8.9e-16,
    )
    assert 2.0 * upper == pytest.approx(spec.fwhm, rel=1e-12)
    # frozen from the oracle for 30 nm bandwidth at 810 nm
    assert spec.fwhm == pytest.approx(8.612947267072945e13, rel=1e-12)


def test_spectrum_density_normalization():
    spec = default_spectrum()
    w = np.linspace(-10 * spec.sigma, 10 * spec.sigma, 20001)
    total = np.trapezoid(spectrum_density(spec, w), w)
    assert total == pytest.approx(SPECTRAL_POWER, rel=1e-9)


def test_spectrum_density_symmetric():
    spec = default_spectrum()
    w = np.linspace(0, 5 * spec.sigma, 100)
    assert np.allclose(spectrum_density(spec, w), spectrum_density(spec, -w), rtol=0, atol=0)


def test_envelope_matches_numeric_inverse_transform():
    # oracle: Riemann sum of (1/2pi) integral S(W) exp(-1j W tau) dW on a
    # +-12 sigma grid; deviation measured relative to the envelope peak
    # because the true value underflows relative precision in the far tail.
    spec = default_spectrum()
    tau_c = spec.coherence_time
    taus = np.linspace(-5 * tau_c, 5 * tau_c, 801)
    w = np.linspace(-12 * spec.sigma, 12 * spec.sigma, 6001)
    dw = w[1] - w[0]
    dens = spectrum_density(spec, w)
    numeric = (dens[None, :] * np.exp(-1j * np.outer(taus, w))).sum(axis=1) * dw / (2 * math.pi)
    analytic = coherence_envelope(spec, taus)
    peak = np.abs(analytic).max()
    assert np.abs(numeric - analytic).max() / peak < 1e-9


def test_envelope_value_at_zero():
    # s(0) = S0 / (2 pi) under the chosen transform convention
    spec = default_spectrum()
    assert complex(coherence_envelope(spec, 0.0)) == pytest.approx(SPECTRAL_POWER / (2 * math.pi))


def test_envelope_real_for_symmetric_spectrum():
    spec = default_spectrum()
    taus = np.linspace(-2e-13, 2e-13, 101)
    env = coherence_envelope(spec, taus)
    assert not np.iscomplexobj(env)
    assert np.abs(env.imag).max() == 0.0


def test_coherence_length_against_root_finding():
    # oracle: half-max crossing of the packet envelope |s(2 d / c)| in d
    spec = default_spectrum()
    env = lambda d: math.exp(-0.5 * (spec.sigma * 2 * d / SPEED_OF_LIGHT) ** 2)
    d_half = brentq(lambda d: env(d) - 0.5, 0.0, 1e-4, rtol=8.9e-16)
    assert 2.0 * d_half == pytest.approx(spec.coherence_length, rel=1e-9)
    # frozen: 30 nm at 810 nm gives a 9.6506 um packet
    assert spec.coherence_length == pytest.approx(9.650601150676981e-06, rel=1e-9)


def test_response_function_even_and_peaked():
    spec = default_spectrum()
    taus = np.linspace(0, 3 * spec.coherence_time, 400)
    f_pos = response_function(spec, taus)
    f_neg = response_function(spec, -taus)
    assert np.allclose(f_pos, f_neg, rtol=0, atol=1e-15)
    assert response_function(spec, 0.0) == pytest.approx(2 * abs(coherence_envelope(spec, 0.0)))
    assert np.all(np.abs(f_pos) <= response_function(spec, 0.0) + 1e-15)


def test_response_function_fringe_period_in_position():
    # zero crossings of f(2 d / c) must be spaced lambda0 / 4 in d, so the
    # full fringe period is lambda0 / 2
    spec = default_spectrum()
    d = np.linspace(-2e-6, 2e-6, 400001)
    f = response_function(spec, 2 * d / SPEED_OF_LIGHT)
    signs = np.sign(f)
    idx = np.nonzero(np.diff(signs) != 0)[0]
    # refine crossings linearly
    crossings = d[idx] - f[idx] * (d[idx + 1] - d[idx]) / (f[idx + 1] - f[idx])
    spacing = np.diff(crossings)
    assert np.allclose(spacing, LAMBDA_0 / 4, rtol=1e-6)


def test_pump_degeneracy_check():
    spec = default_spectrum()
    PumpReference(405e-9).check_degenerate(spec)
    with pytest.raises(ValueError):
        PumpReference(407e-9).check_degenerate(spec)


@pytest.mark.parametrize("scale_error", [-1.0, -1.5, math.nan])
def test_stage_refuses_a_drive_scale_that_does_not_advance(scale_error):
    # the mirror moves (1 + scale_error) times each commanded step
    StageModel(velocity=1e-6, sample_rate=1e3, scale_error=-0.999)
    with pytest.raises(ValueError, match="scale_error must exceed -1"):
        StageModel(velocity=1e-6, sample_rate=1e3, scale_error=scale_error)


@settings(max_examples=30, deadline=None)
@given(z=st.floats(1e-9, 1e-2))
def test_surface_delay_inverse(z):
    tau = surface_delay(z)
    assert SPEED_OF_LIGHT * tau / 2.0 == pytest.approx(z, rel=1e-15)
