"""The benchmark's workloads, their correctness checks, and the probes they share.

All load comes from this one process as one closed-loop client: the next
run (or CLI command) starts when the previous one has returned, and no
worker threads are used. Each workload returns the metrics of one mode:
the end-to-end metrics when untraced, the per-layer metrics when traced.
Untraced, the reference kernel of speed.py runs between operations and the
end-to-end timings are scaled by it.

repeat      the paper's study: seeded runs of the bundled default config,
            in process; pure computation with the analytic phase method
multilayer  the same layers on three surfaces (three cluster refinements
            per run) with the zero-crossing phase method
cli         simulate -> calibrate -> measure as real subprocesses on the
            default config; mostly import and trace-file text I/O
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from qolcr import cli, experiments, tracefile
from qolcr.config import load_config, parse_config
from qolcr.errors import QolcrError

import layers
from spans import Tracer, install, tail
from speed import NOMINAL_S, Speed

HERE = Path(__file__).resolve().parent

# an unflagged separation further than this from the truth is a failed run
TOLERANCE_NM = 5.0
# the repeatability acceptance gate on the seed-to-seed std
STD_GATE_NM = 3.0
# the warm-up run's index; the timed loops never reach it
WARMUP_RUN = 10**9
SETUP_PROBES = 5
IMPORT_PROBES = 3
CONFIG_PARSES = 20
TRACE_LAG = 8
COMMAND_TIMEOUT_S = 120

# what the `qolcr` console script runs
CLI_ENTRY = "import sys; from qolcr.cli import main; sys.exit(main())"
SETUP_CODE = "import sys, qolcr; qolcr.load_config(sys.argv[1])"
ARTIFACTS = ("scan.txt", "run.calibration.txt", "run.record.txt", "report.json")


class BenchError(RuntimeError):
    """The program under test did something the benchmark cannot measure past."""


@dataclass
class Bench:
    """One benchmark run's settings and bookkeeping."""

    root: Path              # checkout root
    work: Path              # scratch directory for artifacts
    seed: int
    seconds: float
    env: dict               # environment for child interpreters
    attempted: int = 0
    failed: int = 0
    checks: dict = field(default_factory=dict)   # name -> passed
    notes: list = field(default_factory=list)
    speed: Speed = field(default_factory=Speed)

    def check(self, name, passed):
        self.checks[name] = self.checks.get(name, True) and bool(passed)

    @property
    def correct(self):
        return bool(self.checks) and all(self.checks.values())


# ---------------------------------------------------------------------------
# inputs and truth


def workload_config_path(bench, workload):
    if workload == "multilayer":
        return HERE / "multilayer.json"
    return bench.root / "configs" / "default.json"


def seeded_config(path, seed):
    """The config at path with its master seed replaced by the benchmark seed."""
    raw = json.loads(load_config(path).to_json())
    raw["seeds"]["master"] = seed
    return parse_config(raw)


def true_separations(config):
    """Every pairwise surface separation, ascending, in meters."""
    z = config.sample.positions
    return sorted(float(b - a) for a, b in itertools.combinations(z, 2))


@dataclass
class Outcomes:
    """Per-run verdicts against the true separations."""

    truth: list
    failed: int = 0
    flagged: int = 0
    errors_nm: list = field(default_factory=list)   # unflagged |sep - truth|
    included: list = field(default_factory=list)    # separations of unflagged runs
    messages: list = field(default_factory=list)

    def add(self, outcome):
        if isinstance(outcome, QolcrError):
            self.failed += 1
            self.messages.append(str(outcome))
            return
        seps = [p.separation for p in outcome.peaks]
        if len(seps) != len(self.truth):
            self.failed += 1
            self.messages.append(f"{len(seps)} separations, expected {len(self.truth)}")
            return
        flags = [p.outlier_flag for p in outcome.peaks]
        errors = [abs(s - t) * 1e9 for s, t, f in zip(seps, self.truth, flags) if not f]
        if any(flags):
            self.flagged += 1
        else:
            self.included.append(seps)
        self.errors_nm.extend(errors)
        if any(e > TOLERANCE_NM for e in errors):
            self.failed += 1
            self.messages.append(f"separation off by {max(errors):.3f} nm")

    def std_nm(self):
        """Largest sample std over included runs among the separations."""
        if len(self.included) < 2:
            return float("nan")
        return max(float(np.std(col, ddof=1)) * 1e9 for col in zip(*self.included))


# ---------------------------------------------------------------------------
# probes in fresh interpreters


def setup_seconds(bench, config_path):
    """Median wall time of a fresh interpreter importing qolcr and parsing the config.

    The first probe only warms the file cache and bytecode and is dropped.
    """
    walls = []
    for _ in range(SETUP_PROBES + 1):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(config_path)],
                       cwd=bench.root, env=bench.env, check=True,
                       capture_output=True, timeout=COMMAND_TIMEOUT_S)
        walls.append(time.perf_counter() - t0)
        bench.speed.sample(5)
    bench.notes.append(f"setup_s: median of {SETUP_PROBES} fresh interpreters "
                       f"({', '.join(f'{w:.3f}' for w in walls[1:])} s)")
    return statistics.median(walls[1:])


def import_profile(bench):
    """import.* metrics: medians over `python -X importtime -c 'import qolcr.cli'`."""
    samples = []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import qolcr.cli"],
                              cwd=bench.root, env=bench.env, check=True,
                              capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S)
        samples.append(layers.import_metrics(layers.parse_importtime(proc.stderr)))
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


def peak_rss_mb(who):
    return resource.getrusage(who).ru_maxrss / 1024.0   # kB on Linux


# ---------------------------------------------------------------------------
# in-process workloads (repeat, multilayer)


def _run(config, index):
    """(wall seconds, report or the QolcrError it raised) of one seeded run."""
    t0 = time.perf_counter()
    try:
        outcome = experiments.run_pipeline(config, run_index=index)
    except QolcrError as exc:
        outcome = exc
    return time.perf_counter() - t0, outcome


def _runs_for(bench, config):
    """Runs 0, 1, ... until bench.seconds have passed, the reference kernel after each."""
    walls, outcomes = [], []
    start = time.perf_counter()
    while time.perf_counter() - start < bench.seconds:
        wall, outcome = _run(config, len(walls))
        walls.append(wall)
        outcomes.append(outcome)
        bench.speed.sample()
    return walls, outcomes


def _judge_runs(bench, workload, config, outcomes):
    verdict = Outcomes(truth=true_separations(config))
    for outcome in outcomes:
        verdict.add(outcome)
    bench.attempted += len(outcomes)
    bench.failed += verdict.failed
    bench.check("no run failed", verdict.failed == 0)
    if workload == "repeat":
        bench.check(f"sep_std_nm <= {STD_GATE_NM}", verdict.std_nm() <= STD_GATE_NM)
    else:
        bench.check("no separation flagged", verdict.flagged == 0)
    for message in verdict.messages[:5]:
        bench.notes.append(f"failed run: {message}")
    return verdict


def end_to_end(bench, setup, walls, rss_mb):
    """End-to-end metrics from the set-up time and the run walls (s), at nominal speed."""
    ms = [w * 1e3 for w in walls]
    p50 = statistics.median(ms)
    tail_ms, pct = tail(ms)
    per_s = len(walls) / sum(walls)
    scale = bench.speed.scale()
    bench.notes.append(f"{len(walls)} runs, tail is p{pct:.1f}")
    bench.notes.append(
        f"as measured: setup {setup:.4f} s, {per_s:.4f} runs/s, p50 {p50:.3f} ms, "
        f"tail {tail_ms:.3f} ms")
    bench.notes.append(
        f"reference kernel median {NOMINAL_S / scale * 1e3:.3f} ms over "
        f"{len(bench.speed.samples)} samples; timings scaled by {scale:.4f} to the "
        f"speed where it takes {NOMINAL_S * 1e3:g} ms")
    return {
        "setup_s": setup * scale,
        "runs_per_s": per_s / scale,
        "run_ms_p50": p50 * scale,
        "run_ms_tail": tail_ms * scale,
        "peak_rss_mb": rss_mb,
    }


def inprocess_untraced(bench, workload):
    path = workload_config_path(bench, workload)
    setup = setup_seconds(bench, path)
    config = seeded_config(path, bench.seed)
    _run(config, WARMUP_RUN)
    walls, outcomes = _runs_for(bench, config)
    _judge_runs(bench, workload, config, outcomes)
    return end_to_end(bench, setup, walls, peak_rss_mb(resource.RUSAGE_SELF))


def inprocess_traced(bench, workload):
    """Every run index untraced and traced, interleaved, then one in-process CLI chain.

    Interleaving puts both sides of the tracing overhead under the same
    machine speed. A run repeated right after itself is about 15% faster
    (what is cached for its record lengths is still there); one repeated
    TRACE_LAG runs later is within 2%, so each traced run repeats the
    untraced run TRACE_LAG indices back. The wrappers are installed only
    around the traced runs.
    """
    metrics = import_profile(bench)
    path = workload_config_path(bench, workload)
    config = seeded_config(path, bench.seed)
    _run(config, WARMUP_RUN)
    tracer = Tracer()
    plain_walls, plain, traced_walls, traced = [], [], [], []

    def traced_run(index):
        with _traced(tracer, index):
            wall, outcome = _run(config, index)
        traced_walls.append(wall)
        traced.append(outcome)

    start = time.perf_counter()
    while len(plain) <= TRACE_LAG or time.perf_counter() - start < bench.seconds:
        wall, outcome = _run(config, len(plain))
        plain_walls.append(wall)
        plain.append(outcome)
        if len(plain) > TRACE_LAG:
            traced_run(len(traced))
    while len(traced) < len(plain):
        traced_run(len(traced))
    with _traced(tracer, "config"):
        for _ in range(CONFIG_PARSES):
            load_config(path)
    with _traced(tracer, "chain"):
        walls = inprocess_chain(bench, path, bench.work / "chain")

    verdict = _judge_runs(bench, workload, config, plain)
    _judge_runs(bench, workload, config, traced)
    bench.check("tracing leaves the separations unchanged",
                [_separations(o) for o in plain] == [_separations(o) for o in traced])
    check_chain(bench, config, bench.work / "chain")
    runs = dict(enumerate(traced_walls))
    metrics.update(layers.span_metrics(
        tracer.spans, runs, {"chain": {"walls": walls, "import_s": 0.0}}))
    _check_accounting(bench, metrics)
    metrics["measure.sep_std_nm"] = verdict.std_nm()
    metrics["measure.sep_err_nm_max"] = max(verdict.errors_nm, default=float("nan"))
    metrics["run.fail_frac"] = bench.failed / bench.attempted
    metrics["trace.overhead_ms"] = (statistics.median(traced_walls)
                                    - statistics.median(plain_walls)) * 1e3
    bench.notes.append(f"traced: {len(traced)} runs, each {TRACE_LAG} runs after "
                       f"the same run untraced")
    write_spans(bench, tracer.spans)
    return metrics


@contextlib.contextmanager
def _traced(tracer, run):
    """Spans around every qolcr layer, stamped with `run`, for the with-block only."""
    restore = install(tracer, *layers.targets())
    tracer.run = run
    try:
        yield
    finally:
        tracer.run = None
        restore()


def _separations(outcome):
    return None if isinstance(outcome, QolcrError) else [p.separation for p in outcome.peaks]


def _check_accounting(bench, metrics):
    """Per-layer self times plus untraced time must add up to the traced run time."""
    layer_ms = sum(metrics[m] for m in layers.RUN_SPANS)
    total = layer_ms + metrics["run.untraced_ms"]
    bench.notes.append(
        f"per run: {layer_ms:.3f} ms in layers + {metrics['run.untraced_ms']:.3f} ms "
        f"untraced = {total:.3f} ms of {metrics['run.traced_ms']:.3f} ms traced")
    bench.check("layer self times add up to the run time",
                abs(total - metrics["run.traced_ms"]) < 1e-6 * metrics["run.traced_ms"])


# ---------------------------------------------------------------------------
# CLI chains


def chain_commands(dest, seed, config_path=None):
    override = ["--config", str(config_path)] if config_path is not None else []
    return [
        ("simulate", ["simulate", *override, "--output", str(dest / "scan.txt"),
                      "--seed", str(seed)]),
        ("calibrate", ["calibrate", str(dest / "scan.txt"), "--output", str(dest / "run")]),
        ("measure", ["measure", str(dest / "run.record.txt"),
                     "--output", str(dest / "report.json")]),
    ]


def inprocess_chain(bench, config_path, dest):
    """The three commands through qolcr.cli.main in this process; {command: wall s}."""
    dest.mkdir(parents=True)
    walls = {}
    for name, args in chain_commands(dest, bench.seed, config_path):
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(args)
        walls[name] = time.perf_counter() - t0
        if code != 0:
            raise BenchError(f"in-process qolcr {name} exited with {code}")
    return walls


def subprocess_chain(bench, dest, spans_dir=None):
    """The three commands as subprocesses; with spans_dir, through the tracing launcher.

    Returns ({command: wall s}, [(spans, import s) per traced command]).
    """
    dest.mkdir(parents=True)
    walls, traced = {}, []
    for name, args in chain_commands(dest, bench.seed):
        if spans_dir is None:
            argv = [sys.executable, "-c", CLI_ENTRY, *args]
        else:
            out = spans_dir / f"{dest.name}-{name}.json"
            argv = [sys.executable, str(HERE / "cli_launcher.py"), str(out), *args]
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=bench.root, env=bench.env, capture_output=True,
                              text=True, timeout=COMMAND_TIMEOUT_S)
        walls[name] = time.perf_counter() - t0
        bench.speed.sample(5)
        if proc.returncode != 0:
            raise BenchError(f"qolcr {name} exited with {proc.returncode}: "
                             f"{proc.stderr.strip()[-500:]}")
        if spans_dir is not None:
            recorded = json.loads(out.read_text())
            traced.append((recorded["spans"], recorded["import_s"]))
    return walls, traced


def artifact_digest(dest):
    h = hashlib.sha256()
    for name in ARTIFACTS:
        h.update(name.encode())
        h.update(hashlib.sha256((dest / name).read_bytes()).digest())
    return h.hexdigest()


def check_chain(bench, config, dest):
    """Read a chain's artifacts back and compare them with the same run in process.

    Returns (report within tolerance, unflagged separation errors in nm).
    """
    trace = experiments.synthesize(config, 0)
    calibration, record = experiments.calibrate_trace(config, trace)
    report = experiments.measure_record(config, record)

    back = tracefile.read_trace(dest / "scan.txt")
    bench.check("trace file reads back as synthesized",
                all(np.array_equal(getattr(back, k), getattr(trace, k))
                    for k in ("reported_d", "intensity", "coincidence")))
    table = tracefile.read_calibration_table(dest / "run.calibration.txt")
    bench.check("calibration table reads back as computed",
                np.array_equal(table.reported, calibration.reported)
                and np.array_equal(table.calibrated, calibration.calibrated))
    rec = tracefile.read_calibrated_record(dest / "run.record.txt")
    bench.check("calibrated record reads back as computed",
                np.array_equal(rec.positions, record.positions)
                and np.array_equal(rec.intensity, record.intensity))
    doc = tracefile.read_json_document(dest / "report.json")
    seps = [p["separation_m"] for p in doc["peaks"]]
    bench.check("CLI report equals the in-process run", seps == report.separations)
    flags = [p["outlier"] for p in doc["peaks"]]
    truth = true_separations(config)
    errors = [abs(s - t) * 1e9 for s, t, f in zip(seps, truth, flags) if not f]
    within = len(seps) == len(truth) and all(e <= TOLERANCE_NM for e in errors)
    bench.check("CLI report within tolerance of truth", within)
    return within, errors


def _cli_config(bench):
    return seeded_config(workload_config_path(bench, "cli"), bench.seed)


def cli_untraced(bench):
    setup = setup_seconds(bench, workload_config_path(bench, "cli"))
    chains = []
    start = time.perf_counter()
    while len(chains) < 2 or time.perf_counter() - start < bench.seconds:
        dest = bench.work / f"chain{len(chains)}"
        walls, _ = subprocess_chain(bench, dest)
        chains.append((walls, artifact_digest(dest)))
    bench.attempted += len(chains)
    bench.check("repeated chains write byte-identical artifacts",
                len({d for _, d in chains}) == 1)
    within, _ = check_chain(bench, _cli_config(bench), bench.work / "chain0")
    bench.failed += 0 if within else len(chains)
    return end_to_end(bench, setup, [sum(w.values()) for w, _ in chains],
                      peak_rss_mb(resource.RUSAGE_CHILDREN))


def cli_traced(bench):
    """Chains untraced and through the tracing launcher, alternating."""
    metrics = import_profile(bench)
    spans_dir = bench.work / "spans"
    spans_dir.mkdir()
    tracer = Tracer()
    plain, chains, digests = [], {}, set()
    start = time.perf_counter()
    while time.perf_counter() - start < bench.seconds:
        index = len(plain)
        dest = bench.work / f"plain{index}"
        walls, _ = subprocess_chain(bench, dest)
        plain.append(sum(walls.values()))
        digests.add(artifact_digest(dest))
        dest = bench.work / f"traced{index}"
        walls, traced = subprocess_chain(bench, dest, spans_dir)
        for spans, _ in traced:
            tracer.extend(spans, run=index)
        chains[index] = {"walls": walls, "import_s": sum(s for _, s in traced)}
        digests.add(artifact_digest(dest))
    bench.attempted += len(plain) + len(chains)
    bench.check("repeated and traced chains write byte-identical artifacts",
                len(digests) == 1)
    within, errors = check_chain(bench, _cli_config(bench), bench.work / "traced0")
    bench.failed += 0 if within else len(plain) + len(chains)

    runs = {i: sum(c["walls"].values()) for i, c in chains.items()}
    metrics.update(layers.span_metrics(tracer.spans, runs, chains))
    metrics["measure.sep_std_nm"] = 0.0   # every chain repeats the same seed
    metrics["measure.sep_err_nm_max"] = max(errors, default=float("nan"))
    metrics["run.fail_frac"] = bench.failed / bench.attempted
    metrics["trace.overhead_ms"] = (statistics.median(runs.values())
                                    - statistics.median(plain)) * 1e3
    bench.notes.append(f"traced: {len(chains)} chains, each right after an untraced one")
    write_spans(bench, tracer.spans)
    return metrics


def write_spans(bench, spans):
    """Write the run's spans out as JSON lines beside the work directory."""
    path = bench.work.parent / f"spans-{bench.work.name}.jsonl"
    with open(path, "w") as fh:
        for span in spans:
            fh.write(json.dumps(span, sort_keys=True) + "\n")
    bench.notes.append(f"spans: {len(spans)} written to {path.relative_to(bench.root)}")


WORKLOADS = {
    "repeat": (lambda b: inprocess_untraced(b, "repeat"),
               lambda b: inprocess_traced(b, "repeat")),
    "multilayer": (lambda b: inprocess_untraced(b, "multilayer"),
                   lambda b: inprocess_traced(b, "multilayer")),
    "cli": (cli_untraced, cli_traced),
}
