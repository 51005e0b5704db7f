"""Configuration parsing, validation messages, and seed derivation."""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest

from qolcr.config import DEFAULT_CONFIG, default_config, load_config, parse_config
from qolcr.errors import ConfigError
from qolcr.experiments import synthesize
from qolcr.model import BandpassSpec


def tweaked(**sections):
    raw = copy.deepcopy(DEFAULT_CONFIG)
    for name, fields in sections.items():
        if fields is None:
            raw[name] = None
        else:
            raw[name].update(fields)
    return raw


def test_default_config_parses_to_si():
    cfg = default_config()
    assert cfg.sample.positions == pytest.approx([9.886e-6, 290.114e-6], abs=1e-18)
    assert cfg.sample.reflectivities.tolist() == [0.6, 0.6]
    assert cfg.spectrum.center_wavelength == pytest.approx(810e-9)
    assert cfg.pump.wavelength == pytest.approx(405e-9)
    assert cfg.stage.spacing == pytest.approx(5e-9)
    assert cfg.stage.scale_error == 1e-3
    assert cfg.noise.poisson_enabled
    assert cfg.scan_range == (0.0, 300e-6)
    assert cfg.pipeline.expected_peaks == 1
    assert cfg.pipeline.grid_step is None
    assert cfg.pipeline.bandpass == BandpassSpec(2.0 / cfg.pump.wavelength, 0.2, 2001)
    assert cfg.master_seed == DEFAULT_CONFIG["seeds"]["master"]


def test_bundled_config_file_matches_package_default():
    bundled = Path(__file__).resolve().parents[1] / "configs" / "default.json"
    assert load_config(bundled).to_json() == default_config().to_json()


def test_load_config_round_trips_effective_dict(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(tweaked(stage={"scale_error": 5e-4})))
    cfg = load_config(path)
    again = parse_config(json.loads(cfg.to_json()))
    assert again.stage == cfg.stage
    assert again.sample == cfg.sample
    assert again.scan_range == cfg.scan_range
    assert again.master_seed == cfg.master_seed


def test_retired_fields_are_read_and_dropped():
    # spectrum.total_power and pipeline.phase_method select nothing any more;
    # configs and table headers written before their removal still load
    old = tweaked(spectrum={"total_power": 1.0e6}, pipeline={"phase_method": "crossings"})
    assert parse_config(old).to_json() == default_config().to_json()
    # the benchmark's three-surface config names both, with crossings
    multilayer_path = Path(__file__).resolve().parents[1] / "perfbench" / "multilayer.json"
    multilayer = json.loads(multilayer_path.read_text())
    multilayer["spectrum"].pop("total_power", None)
    multilayer["pipeline"].pop("phase_method", None)
    assert load_config(multilayer_path).to_json() == parse_config(multilayer).to_json()


def test_invalid_json_raises_config_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{ not json")
    with pytest.raises(ConfigError):
        load_config(path)


@pytest.mark.parametrize("raw, needle", [
    (tweaked(stage={"velocity_nm_per_s": -1.0}), "stage.velocity_nm_per_s"),
    (tweaked(stage={"unknown_knob": 1.0}), "unknown_knob"),
    (tweaked(spectrum={"bandwidth_fwhm_nm": 0.0}), "spectrum.bandwidth_fwhm_nm"),
    (tweaked(scan={"stop_um": 0.0}), "scan.stop_um"),
    # a retired field is dropped only from its own section
    (tweaked(stage={"phase_method": "analytic"}), "phase_method"),
    (tweaked(pipeline={"filter_num_taps": 10}), "filter_num_taps"),
    (tweaked(seeds={"master": -3}), "seeds.master"),
    (tweaked(noise={"singles_scale": True}), "noise.singles_scale"),
    (tweaked(pipeline={"filter_num_taps": 2000}), "pipeline.filter_num_taps"),
    (tweaked(pipeline={"filter_relative_bandwidth": 1.5}),
     "pipeline.filter_relative_bandwidth"),
    (tweaked(stage={"velocity_nm_per_s": float("nan")}),
     "stage.velocity_nm_per_s must be a finite number"),
    (tweaked(scan={"stop_um": float("inf")}), "scan.stop_um must be a finite number"),
    (tweaked(noise={"singles_scale": float("nan")}),
     "noise.singles_scale must be a finite number"),
    (tweaked(pipeline={"grid_step_nm": float("nan")}),
     "pipeline.grid_step_nm must be a finite number"),
    (tweaked(stage={"scale_error": float("-inf")}), "stage.scale_error must be a finite number"),
    (tweaked(scan={"stop_um": 10 ** 400}), "scan.stop_um must be a finite number"),
    (tweaked(pipeline={"expected_peaks": 0}), "pipeline.expected_peaks must be at least 1"),
    ([], "configuration root must be a JSON object"),
    (dict(tweaked(), noise=[]), "section 'noise' must be an object"),
    (tweaked(stage={"velocity_nm_per_s": None}), "stage.velocity_nm_per_s is required"),
    (tweaked(noise={"background": -1.0}), "noise.background must not be negative"),
    (tweaked(pipeline={"filter_num_taps": 2001.0}), "pipeline.filter_num_taps must be an integer"),
    (tweaked(sample={"surfaces": [{"reflectivity": 0.6}]}),
     "sample.surfaces[0] must have exactly the fields"),
    (tweaked(sample={"surfaces": [{"reflectivity": 0.6, "position_um": 290.114},
                                  {"reflectivity": 0.6, "position_um": 9.886}]}),
     "sample.surfaces: surface positions must be strictly increasing"),
    (tweaked(noise={"enabled": "yes"}), "noise.enabled must be true or false"),
    (tweaked(scan={"start_um": 200.0, "stop_um": 100.0}),
     "scan.stop_um must exceed scan.start_um"),
    # a drive scale of 1 + scale_error <= 0 never advances the stage
    (tweaked(stage={"scale_error": -1.0}), "stage.scale_error must exceed -1"),
    (tweaked(stage={"scale_error": -1.5}), "stage.scale_error must exceed -1"),
])
def test_field_level_messages(raw, needle):
    with pytest.raises(ConfigError) as err:
        parse_config(raw)
    assert needle in str(err.value)


def test_sample_validation():
    raw = tweaked()
    raw["sample"]["surfaces"] = []
    with pytest.raises(ConfigError):
        parse_config(raw)
    raw["sample"]["surfaces"] = [{"reflectivity": 1.4, "position_um": 10.0}]
    with pytest.raises(ConfigError) as err:
        parse_config(raw)
    assert "reflectivity" in str(err.value)


def test_scan_must_cover_sample():
    raw = tweaked(scan={"stop_um": 200.0})   # second surface at 290 um
    with pytest.raises(ConfigError) as err:
        parse_config(raw)
    assert "scan range" in str(err.value)


def test_pump_must_match_spectrum():
    raw = tweaked(pump={"wavelength_nm": 500.0})
    with pytest.raises(ConfigError):
        parse_config(raw)


def test_unknown_top_level_section():
    raw = copy.deepcopy(DEFAULT_CONFIG)
    raw["detector"] = {}
    with pytest.raises(ConfigError) as err:
        parse_config(raw)
    assert "detector" in str(err.value)


def test_noise_section_variants():
    # enabled: false is the one noise-off switch; a null section is rejected
    with pytest.raises(ConfigError, match="section 'noise' must be an object"):
        parse_config(tweaked(noise=None))
    cfg = parse_config(tweaked(noise={"enabled": False}))
    assert not cfg.noise.poisson_enabled


def test_seed_derivation_is_deterministic_and_spread():
    cfg = default_config()
    a = cfg.seeds_for_run(0)
    b = cfg.seeds_for_run(0)
    c = cfg.seeds_for_run(1)
    assert a == b
    assert a != c
    assert all(0 <= s < 2 ** 32 for s in a + c)


def test_stage_and_noise_for_run_attach_seeds():
    cfg = default_config()
    meta = synthesize(cfg, 3).metadata
    assert (meta["stage_seed"], meta["noise_seed"]) == cfg.seeds_for_run(3)


def test_with_sample_updates_effective():
    cfg = default_config()
    moved = cfg.with_sample(cfg.sample.shifted(0, 1e-6))
    assert moved.sample.positions[0] == pytest.approx(10.886e-6)
    surf = moved.effective["sample"]["surfaces"][0]
    assert surf["position_um"] == pytest.approx(10.886)
    # original untouched
    assert cfg.effective["sample"]["surfaces"][0]["position_um"] == 9.886


def test_grid_step_override_converts_units():
    cfg = parse_config(tweaked(pipeline={"grid_step_nm": 2.5}))
    assert cfg.pipeline.grid_step == pytest.approx(2.5e-9)
