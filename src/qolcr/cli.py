"""Command-line interface: simulate, calibrate, measure, repeat, linearity.

Exit codes: 0 success, 1 configuration or parse error, 2 pipeline-quality
failure, 3 I/O error.  Batch commands (repeat, linearity) record per-run
failures inside the results document and exit 2 only when fewer than two
runs are left to compute a spread or a deviation from.

File-producing commands take --output; calibrate and the batch commands
emit several artifacts and treat --output as a prefix (e.g. --output run1
writes run1.calibration.txt and run1.record.txt).  All outputs are written
atomically and contain no timestamps, so a rerun with the same config and
seeds is byte-identical.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import sys

from qolcr import tracefile
from qolcr.config import RunConfig, default_config, load_config, parse_config
from qolcr.errors import (
    ConfigError,
    PipelineQualityError,
    QolcrError,
    TraceParseError,
)
from qolcr.experiments import (
    calibrate_trace,
    linearity_experiment,
    measure_record,
    repeatability_experiment,
    synthesize,
)

# finalization's GC pass over the ~71k objects scipy's imports create took each
# command 115-145 ms after main() returned; with the heap frozen at exit, about 20 ms
atexit.register(gc.freeze)


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped onto the validation exit code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _resolve_config(args, data_path=None) -> RunConfig:
    """Config from --config, else the one embedded in data_path, else the default."""
    if args.config is not None:
        return load_config(args.config)
    if data_path is None:
        return default_config()
    try:
        embedded = tracefile.read_embedded_config(data_path)
    except ConfigError as exc:
        raise ConfigError(f"the config embedded in {data_path} is invalid ({exc}); "
                          "--config overrides it") from exc
    if embedded is None:
        raise ConfigError(f"{data_path} has no embedded config; pass --config")
    return embedded


def _with_seed(config: RunConfig, seed) -> RunConfig:
    """The config with its master seed replaced by --seed, when given."""
    if seed is None:
        return config
    raw = json.loads(config.to_json())
    raw["seeds"]["master"] = seed
    return parse_config(raw)


# ---------------------------------------------------------------------------
# commands


def cmd_simulate(args) -> int:
    config = _with_seed(_resolve_config(args), args.seed)
    trace = synthesize(config, run_index=0)
    tracefile.write_trace(trace, args.output, config=config)
    start, stop = config.scan_range
    meta = trace.metadata
    print(f"wrote {args.output}: {trace.n_samples} samples over "
          f"[{start * 1e6:g} um, {stop * 1e6:g} um)")
    print(f"stage seed {meta['stage_seed']}, noise seed {meta['noise_seed']}, "
          f"poisson {meta['poisson']}")
    return 0


def cmd_calibrate(args) -> int:
    config = _resolve_config(args, args.trace)
    trace = tracefile.read_trace(args.trace)
    calibration, record = calibrate_trace(config, trace)
    table_path = f"{args.output}.calibration.txt"
    record_path = f"{args.output}.record.txt"
    tracefile.write_calibration_table(calibration, table_path, config=config)
    tracefile.write_calibrated_record(record, record_path, config=config)
    quality = calibration.quality
    print(f"wrote {table_path}: {len(calibration.reported)} knots")
    print(f"wrote {record_path}: {len(record.positions)} samples at "
          f"{record.grid_step * 1e9:g} nm")
    print(f"rms correction {quality['rms_correction'] * 1e9:.3f} nm, "
          f"max {quality['max_abs_correction'] * 1e9:.3f} nm, "
          f"valid fraction {quality['valid_fraction']:.4f}")
    return 0


def cmd_measure(args) -> int:
    config = _resolve_config(args, args.record)
    record = tracefile.read_calibrated_record(args.record)
    report = measure_record(config, record)
    tracefile.write_json_document(report.to_dict(), args.output)
    print(f"wrote {args.output}: {len(report.peaks)} separation(s)")
    for peak in report.peaks:
        flag = "  [ambiguous]" if peak.outlier_flag else ""
        print(f"separation {peak.separation * 1e6:.6f} um "
              f"+/- {peak.uncertainty * 1e9:.3f} nm{flag}")
    return 0


def cmd_repeat(args) -> int:
    config = _with_seed(_resolve_config(args), args.seed)
    result = repeatability_experiment(config, n_runs=args.runs,
                                      force_ambiguity_runs=args.force_ambiguity)
    results_path = f"{args.output}.results.json"
    plot_path = f"{args.output}.separations.txt"
    tracefile.write_json_document(result.to_dict(), results_path)
    measured = [(entry["run"], entry["separation_m"] * 1e6)
                for entry in result.seed_ledger
                if entry.get("separation_m") is not None]
    runs = [run for run, _ in measured]
    seps = [sep for _, sep in measured]
    tracefile.write_plot_data(plot_path, ["run", "separation_um"],
                              [runs, seps], comment="repeatability runs")
    print(f"wrote {results_path} and {plot_path}")
    print(f"{result.n_runs} runs: {result.included_count} included, "
          f"{result.outlier_count} ambiguity outliers, "
          f"{len(result.failures)} failures")
    if result.std_dev is None:
        raise PipelineQualityError(
            f"{result.included_count} included run(s); a spread needs at least 2")
    print(f"std_dev {result.std_dev * 1e9:.3f} nm over included runs")
    return 0


def cmd_linearity(args) -> int:
    config = _with_seed(_resolve_config(args), args.seed)
    result = linearity_experiment(config, step=args.step_size * 1e-9,
                                  n_steps=args.steps)
    results_path = f"{args.output}.results.json"
    measured_path = f"{args.output}.measured.txt"
    deviations_path = f"{args.output}.deviations.txt"
    tracefile.write_json_document(result.to_dict(), results_path)
    commanded_um = [z * 1e6 for z in result.commanded_positions]
    tracefile.write_plot_data(
        measured_path, ["commanded_um", "measured_separation_um"],
        [commanded_um, [m * 1e6 for m in result.measured_separations]],
        comment="linearity sweep: commanded first-surface position vs "
                "measured separation")
    tracefile.write_plot_data(
        deviations_path, ["commanded_um", "deviation_nm"],
        [commanded_um, [d * 1e9 for d in result.deviations]],
        comment="linearity sweep: deviation from the unit-slope line "
                "through the first measured step")
    print(f"wrote {results_path}, {measured_path}, {deviations_path}")
    print(f"{len(result.ledger)} steps of {args.step_size:g} nm: "
          f"max |deviation| {result.max_abs_deviation * 1e9:.3f} nm, "
          f"{len(result.failures)} failures")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> _Parser:
    parser = _Parser(prog="qolcr", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="synthesize one scan trace")
    sim.add_argument("--config", help="run configuration JSON path")
    sim.add_argument("--output", required=True, help="trace file to write")
    sim.add_argument("--seed", type=int, help="override the master seed")
    sim.set_defaults(func=cmd_simulate)

    cal = sub.add_parser("calibrate",
                         help="calibrate a trace and resample its intensity")
    cal.add_argument("trace", help="trace file from simulate")
    cal.add_argument("--config", help="override the embedded config")
    cal.add_argument("--output", required=True,
                     help="prefix for .calibration.txt and .record.txt")
    cal.set_defaults(func=cmd_calibrate)

    mea = sub.add_parser("measure",
                         help="estimate separations from a calibrated record")
    mea.add_argument("record", help="calibrated record from calibrate")
    mea.add_argument("--config", help="override the embedded config")
    mea.add_argument("--output", required=True, help="report JSON to write")
    mea.set_defaults(func=cmd_measure)

    rep = sub.add_parser("repeat", help="repeatability study over seeded runs")
    rep.add_argument("--config", help="run configuration JSON path")
    rep.add_argument("--output", required=True,
                     help="prefix for .results.json and .separations.txt")
    rep.add_argument("--runs", type=int, default=70, help="number of runs")
    rep.add_argument("--seed", type=int, help="override the master seed")
    rep.add_argument("--force-ambiguity", type=int, nargs="*", default=[],
                     metavar="RUN",
                     help="run indexes forced onto the wrong fringe")
    rep.set_defaults(func=cmd_repeat)

    lin = sub.add_parser("linearity",
                         help="linearity study over commanded surface shifts")
    lin.add_argument("--config", help="run configuration JSON path")
    lin.add_argument("--output", required=True,
                     help="prefix for .results.json and plot data")
    lin.add_argument("--steps", type=int, default=10, help="number of steps")
    lin.add_argument("--step-size", type=float, default=5.0,
                     help="commanded step in nm")
    lin.add_argument("--seed", type=int, help="override the master seed")
    lin.set_defaults(func=cmd_linearity)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TraceParseError as exc:
        print(f"qolcr: parse error: {exc}", file=sys.stderr)
        return 1
    except PipelineQualityError as exc:
        print(f"qolcr: quality failure: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"qolcr: invalid configuration: {exc}", file=sys.stderr)
        return 1
    except QolcrError as exc:
        print(f"qolcr: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"qolcr: i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
