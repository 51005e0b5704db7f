"""The qolcr functions the benchmark wraps, and the metrics built from their spans.

Layers are the qolcr modules. Each wrapped function is a public function of
its module that the pipeline or the CLI calls; its span is named
`<module>.<function>`. Counts are read from a call's arguments and result
after the call returns.

This module imports no qolcr code, so the tests can load it without the
package; `targets()` resolves the modules when tracing starts.
"""

from __future__ import annotations

import importlib
import os
import statistics
import sys

from spans import max_prime_factor, per_run, self_times

END_TO_END_UNITS = {
    "setup_s": "s",
    "runs_per_s": "1/s",
    "run_ms_p50": "ms",
    "run_ms_tail": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "import.total_s": "s",
    "import.scipy_signal_s": "s",
    "import.scipy_ndimage_s": "s",
    "config.parse_ms": "ms",
    "scan.synthesize_ms": "ms",
    "scan.samples": "count",
    "calibration.design_bandpass_ms": "ms",
    "calibration.extract_tpi_ms": "ms",
    "calibration.extract_phase_ms": "ms",
    "calibration.build_calibration_ms": "ms",
    "calibration.resample_intensity_ms": "ms",
    "calibration.knots": "count",
    "calibration.record_samples": "count",
    "measure.autocorrelate_ms": "ms",
    "measure.estimate_separations_ms": "ms",
    "measure.acorr_lags": "count",
    "measure.acorr_len_max_prime": "count",
    "measure.clusters_refined": "count",
    "measure.cluster_candidates": "count",
    "measure.sep_std_nm": "nm",
    "measure.sep_err_nm_max": "nm",
    "experiments.self_ms": "ms",
    "tracefile.write_trace_s": "s",
    "tracefile.read_trace_s": "s",
    "tracefile.read_embedded_config_s": "s",
    "tracefile.write_calibration_table_s": "s",
    "tracefile.write_calibrated_record_s": "s",
    "tracefile.read_calibrated_record_s": "s",
    "tracefile.write_json_document_s": "s",
    "tracefile.bytes_written": "count",
    "tracefile.bytes_read": "count",
    "cli.simulate_s": "s",
    "cli.calibrate_s": "s",
    "cli.measure_s": "s",
    "cli.chain_s": "s",
    "cli.overhead_s": "s",
    "run.traced_ms": "ms",
    "run.untraced_ms": "ms",
    "run.fail_frac": "ratio",
    "trace.overhead_ms": "ms",
}

# per-run self time (mean over runs, ms) from these spans; on an in-process
# run they are every span, so they add up to run.traced_ms with
# run.untraced_ms
RUN_SPANS = {
    "scan.synthesize_ms": ("scan.simulate_scan",),
    "calibration.design_bandpass_ms": ("calibration.design_bandpass",),
    "calibration.extract_tpi_ms": ("calibration.extract_tpi",),
    "calibration.extract_phase_ms": ("calibration.extract_phase",),
    "calibration.build_calibration_ms": ("calibration.build_calibration",),
    "calibration.resample_intensity_ms": ("calibration.resample_intensity",),
    "measure.autocorrelate_ms": ("measure.autocorrelate",),
    "measure.estimate_separations_ms": ("measure.estimate_separations",),
    "experiments.self_ms": ("experiments.run_pipeline", "experiments.synthesize",
                            "experiments.calibrate_trace", "experiments.measure_record"),
}

RUN_COUNTS = ("scan.samples", "calibration.knots", "calibration.record_samples",
              "measure.acorr_lags", "measure.acorr_len_max_prime",
              "measure.clusters_refined", "measure.cluster_candidates")

# per-chain self time (mean over chains, s) of the trace-file functions
CHAIN_SPANS = {
    f"tracefile.{fn}_s": f"tracefile.{fn}"
    for fn in ("write_trace", "read_trace", "read_embedded_config",
               "write_calibration_table", "write_calibrated_record",
               "read_calibrated_record", "write_json_document")
}

CHAIN_COUNTS = ("tracefile.bytes_written", "tracefile.bytes_read")


def _path(args, kwargs, index):
    return kwargs["path"] if "path" in kwargs else args[index]


def _written(index):
    return lambda a, k, r: {"tracefile.bytes_written": os.path.getsize(_path(a, k, index))}


def _read(a, k, r):
    return {"tracefile.bytes_read": os.path.getsize(_path(a, k, 0))}


def _acorr(a, k, r):
    n = len(r.lags)
    return {"measure.acorr_lags": n, "measure.acorr_len_max_prime": max_prime_factor(n)}


def _clusters(a, k, r):
    search = r.quality.get("cluster_search", {})
    return {"measure.clusters_refined": len(r.peaks),
            "measure.cluster_candidates": search.get("n_candidates", 0)}


# (module, function, counter); read_embedded_config reads only the header
# lines, so it adds nothing to bytes_read
WRAPPED = (
    ("config", "parse_config", None),
    ("scan", "simulate_scan", lambda a, k, r: {"scan.samples": r.n_samples}),
    ("calibration", "design_bandpass", None),
    ("calibration", "extract_tpi", None),
    ("calibration", "extract_phase", None),
    ("calibration", "build_calibration",
     lambda a, k, r: {"calibration.knots": len(r.reported)}),
    ("calibration", "resample_intensity",
     lambda a, k, r: {"calibration.record_samples": r.n_samples}),
    ("measure", "autocorrelate", _acorr),
    ("measure", "estimate_separations", _clusters),
    ("experiments", "synthesize", None),
    ("experiments", "calibrate_trace", None),
    ("experiments", "measure_record", None),
    ("experiments", "run_pipeline", None),
    ("tracefile", "write_trace", _written(1)),
    ("tracefile", "read_trace", _read),
    ("tracefile", "read_embedded_config", None),
    ("tracefile", "write_calibration_table", _written(1)),
    ("tracefile", "write_calibrated_record", _written(1)),
    ("tracefile", "read_calibrated_record", _read),
    ("tracefile", "write_json_document", _written(1)),
    ("cli", "cmd_simulate", None),
    ("cli", "cmd_calibrate", None),
    ("cli", "cmd_measure", None),
)


def targets():
    """Install targets for spans.install, with every qolcr module to patch."""
    found = [(importlib.import_module(f"qolcr.{mod}"), fn, f"{mod}.{fn}", counter)
             for mod, fn, counter in WRAPPED]
    modules = [m for name, m in sys.modules.items()
               if name == "qolcr" or name.startswith("qolcr.")]
    return found, modules


def parse_importtime(text):
    """Cumulative seconds per module from `python -X importtime` output (first entry wins)."""
    cumulative = {}
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        cumulative.setdefault(parts[2].strip(), int(parts[1]) * 1e-6)
    return cumulative


def import_metrics(cumulative):
    """import.* metrics from one `import qolcr.cli` profile."""
    return {
        "import.total_s": cumulative["qolcr.cli"],
        "import.scipy_signal_s": cumulative["scipy.signal"],
        "import.scipy_ndimage_s": cumulative["scipy.ndimage"],
    }


def span_metrics(spans, runs, chains):
    """Per-layer metrics from the spans of traced runs and CLI chains.

    runs: {run id: wall seconds} of the runs the per-run metrics average over.
    chains: {chain id: {"walls": {command: seconds}, "import_s": seconds}};
    a chain's spans carry its id, and import_s is the time its commands
    spent importing qolcr (0 when the commands ran in-process).
    """
    mean = statistics.fmean
    times, counts = per_run(spans, set(runs) | set(chains))
    out = {}
    for metric, names in RUN_SPANS.items():
        out[metric] = mean(sum(times[r].get(n, 0) for n in names) for r in runs) * 1e-6
    for name in RUN_COUNTS:
        out[name] = statistics.median(counts[r].get(name, 0) for r in runs)
    out["run.traced_ms"] = mean(runs.values()) * 1e3
    out["run.untraced_ms"] = mean(
        wall - sum(times[r].values()) * 1e-9 for r, wall in runs.items()) * 1e3

    for metric, name in CHAIN_SPANS.items():
        out[metric] = mean(times[c].get(name, 0) for c in chains) * 1e-9
    for name in CHAIN_COUNTS:
        out[name] = statistics.median(counts[c].get(name, 0) for c in chains)
    for command in ("simulate", "calibrate", "measure"):
        out[f"cli.{command}_s"] = mean(ch["walls"][command] for ch in chains.values())
    out["cli.chain_s"] = mean(sum(ch["walls"].values()) for ch in chains.values())
    out["cli.overhead_s"] = mean(
        sum(ch["walls"].values()) - ch["import_s"]
        - sum(ns for name, ns in times[c].items() if not name.startswith("cli.")) * 1e-9
        for c, ch in chains.items())

    parses = [ns for span, ns in zip(spans, self_times(spans))
              if span["name"] == "config.parse_config"]
    out["config.parse_ms"] = statistics.median(parses) * 1e-6
    return out
