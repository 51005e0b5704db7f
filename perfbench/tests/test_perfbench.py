"""Tests of the benchmark's own arithmetic and of its declared metric names.

Run with `python -m pytest perfbench/tests`; none of them needs qolcr.
"""

import json
import sys
import types
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import layers  # noqa: E402
import run  # noqa: E402
from spans import Tracer, install, max_prime_factor, per_run, self_times, tail  # noqa: E402


def _span(name, start, end, parent=None, run=0, counts=None):
    span = {"name": name, "start": start, "end": end, "parent": parent, "run": run}
    if counts:
        span["counts"] = counts
    return span


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("a", 0, 100),
        _span("b", 10, 40, parent=0),
        _span("c", 15, 25, parent=1),
        _span("d", 50, 60, parent=0),
    ]
    assert self_times(spans) == [60, 20, 10, 10]
    assert sum(self_times(spans)) == 100


def test_per_run_sums_self_time_and_counts_by_name_and_run():
    spans = [
        _span("x", 0, 10, run=0, counts={"n": 3}),
        _span("y", 2, 5, parent=0, run=0),
        _span("x", 20, 30, run=1, counts={"n": 4}),
        _span("x", 40, 45, run=None),
    ]
    times, counts = per_run(spans, [0, 1])
    assert times == {0: {"x": 7, "y": 3}, 1: {"x": 10}}
    assert counts == {0: {"n": 3}, 1: {"n": 4}}


def test_tracer_records_nesting_counts_and_failures():
    tracer = Tracer()

    def inner(v):
        if v < 0:
            raise ValueError(v)
        return v * 2

    inner_t = tracer.wrap("inner", inner, counter=lambda a, k, r: {"doubled": r})
    outer_t = tracer.wrap("outer", lambda v: inner_t(v) + 1)
    tracer.run = 7
    assert outer_t(3) == 7
    with pytest.raises(ValueError):
        inner_t(-1)
    names = [(s["name"], s["parent"], s["run"], s.get("counts")) for s in tracer.spans]
    assert names == [("outer", None, 7, None), ("inner", 0, 7, {"doubled": 6}),
                     ("inner", None, 7, None)]
    assert all(s["end"] >= s["start"] > 0 for s in tracer.spans)


def test_extend_rebases_parents_of_spans_from_another_process():
    tracer = Tracer()
    tracer.spans.append(_span("local", 0, 1))
    tracer.extend([_span("p", 0, 9), _span("q", 1, 2, parent=0)], run=3)
    assert [(s["parent"], s["run"]) for s in tracer.spans[1:]] == [(None, 3), (1, 3)]


def test_install_patches_every_module_that_looks_the_function_up():
    owner = types.ModuleType("owner")
    exec("def work():\n    return 'done'\n", owner.__dict__)
    caller = types.ModuleType("caller")
    caller.work = owner.work
    exec("def go():\n    return work()\n", caller.__dict__)
    original = owner.work

    tracer = Tracer()
    restore = install(tracer, [(owner, "work", "owner.work", None)], [owner, caller])
    assert caller.go() == "done"
    assert [s["name"] for s in tracer.spans] == ["owner.work"]
    restore()
    assert owner.work is original and caller.work is original


@pytest.mark.parametrize("n", [1, 5, 20])
def test_tail_falls_back_to_the_maximum_below_21_runs(n):
    values = list(range(n, 0, -1))
    assert tail(values) == (n, 100.0)


@pytest.mark.parametrize("n", [21, 22, 100])
def test_tail_is_the_highest_value_with_ten_runs_beyond_it(n):
    values = [float(v) for v in range(n)]
    value, pct = tail(reversed(values))
    assert sum(v > value for v in values) == 10
    assert value == n - 11
    assert pct == pytest.approx(100.0 * (n - 10) / n)


def test_max_prime_factor_matches_known_autocorrelogram_lengths():
    assert max_prime_factor(119591) == 119591       # prime: slow FFT
    assert max_prime_factor(119567) == 31
    assert max_prime_factor(1024) == 2
    assert max_prime_factor(97 * 97) == 97
    with pytest.raises(ValueError):
        max_prime_factor(1)


def test_parse_importtime_takes_cumulative_seconds():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       470 |     376326 |         scipy.ndimage",
        "import time:       490 |     662622 |         scipy.signal",
        "import time:       519 |    1536261 |   qolcr",
        "import time:      4009 |    1547887 | qolcr.cli",
        "unrelated line",
    ])
    assert layers.import_metrics(layers.parse_importtime(text)) == pytest.approx({
        "import.total_s": 1.547887,
        "import.scipy_signal_s": 0.662622,
        "import.scipy_ndimage_s": 0.376326,
    })


def test_span_metrics_layer_self_times_add_up_to_the_run_time():
    ms = 1_000_000
    spans = []
    for r in (0, 1):
        base = len(spans)
        spans += [
            _span("experiments.run_pipeline", 0, 100 * ms, run=r),
            _span("scan.simulate_scan", 1 * ms, 40 * ms, parent=base, run=r,
                  counts={"scan.samples": 60000}),
            _span("calibration.extract_tpi", 41 * ms, 60 * ms, parent=base, run=r),
            _span("calibration.design_bandpass", 42 * ms, 45 * ms, parent=base + 2, run=r),
            _span("measure.estimate_separations", 61 * ms, (90 + r) * ms, parent=base, run=r),
        ]
    spans += [
        _span("cli.cmd_simulate", 0, 2000 * ms, run="c"),
        _span("config.parse_config", 1 * ms, 2 * ms, parent=len(spans), run="c"),
        _span("tracefile.write_trace", 10 * ms, 1010 * ms, parent=len(spans), run="c",
              counts={"tracefile.bytes_written": 123}),
    ]
    runs = {0: 0.101, 1: 0.102}
    chains = {"c": {"walls": {"simulate": 2.5, "calibrate": 0.0, "measure": 0.0},
                    "import_s": 0.25}}
    out = layers.span_metrics(spans, runs, chains)
    layer_ms = sum(out[m] for m in layers.RUN_SPANS)
    assert layer_ms + out["run.untraced_ms"] == pytest.approx(out["run.traced_ms"])
    assert out["run.untraced_ms"] == pytest.approx(1.5)   # 101 and 102 ms walls, 100 ms spanned
    assert out["calibration.extract_tpi_ms"] == pytest.approx(16.0)
    assert out["measure.estimate_separations_ms"] == pytest.approx(29.5)
    assert out["scan.samples"] == 60000
    assert out["tracefile.write_trace_s"] == pytest.approx(1.0)
    assert out["tracefile.bytes_written"] == 123
    assert out["config.parse_ms"] == pytest.approx(1.0)
    # 2.5 s wall - 0.25 s import - 1.001 s in config and tracefile spans
    assert out["cli.overhead_s"] == pytest.approx(1.249)


def test_metric_names_and_units_match_benchmark_json():
    declared = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == layers.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == layers.PER_LAYER_UNITS
    for workload in declared["workloads"]:
        assert run.parse_args(["--workload", workload["name"]]).workload == workload["name"]
    with pytest.raises(SystemExit):
        run.parse_args(["--workload", "unknown"])


def test_speed_scale_is_nominal_over_median_sample():
    from speed import NOMINAL_S, Speed

    speed = Speed()
    speed.sample(3)
    assert len(speed.samples) == 3 and all(t > 0 for t in speed.samples)
    speed.samples = [0.004, 0.016, 0.010]
    assert speed.scale() == pytest.approx(NOMINAL_S / 0.010)
