"""Tests of the benchmark itself, on tiny variants of each workload.

Run with ``python3 -m pytest perfbench``.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import spans
import workloads

sys.path.insert(0, str(run.SRC))


def _prepare(name, tmp_path, seed=3):
    wl = workloads.WORKLOADS[name].tiny_variant()
    inputs, desc = workloads.prepare(wl, seed, tmp_path / "inputs")
    return wl, inputs, desc


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_workload_passes_every_check(name, tmp_path):
    wl, inputs, desc = _prepare(name, tmp_path)
    reps, setup = run.run_workload(wl, inputs, 3, 0.0, True, tmp_path / "runs")
    assert [r.failures for r in reps] == [[], []]
    assert len(setup) == run.SETUP_PROBES and min(setup) > 0
    assert desc["inputs"][0]["m"] == inputs[0].src.size > 0
    layers = run.per_layer(reps)
    assert set(layers) == set(spans.UNITS)
    assert layers["trace.coverage"][0] >= 0.9
    assert layers["graph.nodes"][0] == inputs[0].n
    assert layers["graph.edges"][0] == inputs[0].src.size
    assert layers["io.rows"][0] == inputs[0].rows


def test_inputs_follow_the_seed(tmp_path):
    _, a, _ = _prepare("sparse-exact", tmp_path / "a", seed=5)
    _, b, _ = _prepare("sparse-exact", tmp_path / "b", seed=5)
    _, c, _ = _prepare("sparse-exact", tmp_path / "c", seed=6)
    assert a[0].csv.read_bytes() == b[0].csv.read_bytes()
    assert a[0].csv.read_bytes() != c[0].csv.read_bytes()


def test_repeated_spread_counts_as_waste(tmp_path):
    wl, inputs, _ = _prepare("intervention-ic", tmp_path)
    reps, _ = run.run_workload(wl, inputs, 3, 0.0, True, tmp_path / "runs")
    layers = run.per_layer(reps)
    # three strategies each recompute the same baseline: 4 distinct of 6
    assert layers["simulate.spread_calls"][0] == 6
    assert layers["simulate.useful_spread_ratio"][0] == pytest.approx(4 / 6)
    assert layers["rng.trial_streams"][0] == 6 * 40


def _drop_betweenness_row(out):
    path = out / "betweenness.scores.csv"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:5] + lines[6:]))


def _perturb_top_pc_score(out):
    path = out / "pc.scores.csv"
    lines = path.read_text().splitlines(keepends=True)
    label, score = lines[1].strip().split(",")
    lines[1] = f"{label},{float(score) * (1 + 1e-6)!r}\n"
    path.write_text("".join(lines))


@pytest.mark.parametrize("tamper, message", [
    (_drop_betweenness_row, "betweenness: expected one row per node"),
    (_perturb_top_pc_score, "pc sums to"),
])
def test_tampered_output_fails_and_raises_error_rate(tamper, message, tmp_path,
                                                     monkeypatch):
    wl, inputs, _ = _prepare("social-run", tmp_path)
    check_output = checks.check_output

    def check_tampered(out_dir, *args):
        tamper(out_dir)
        return check_output(out_dir, *args)

    monkeypatch.setattr(checks, "check_output", check_tampered)
    reps, _ = run.run_workload(wl, inputs, 3, 0.0, False, tmp_path / "runs")
    assert run.error_rate(reps) == 1.0
    assert any(message in f for f in reps[0].failures)
    assert "run_s" not in run.end_to_end(reps, [0.1])


def test_reachability_oracle_on_a_path():
    # 0 -> 1 -> 2, 3 isolated: reach from {0} is 3, removing 1 leaves 1
    src, dst = np.array([0, 1]), np.array([1, 2])
    assert checks._reachable(4, src, dst, [0]) == 3
    assert checks._reachable(4, src, dst, [0], removed=[1]) == 1
    assert checks._reachable(4, src, dst, [1], removed=[1]) == 0


def test_missing_sources_exit_nonzero(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", Path(tmp_path) / "src")
    assert run.main(["--workload", "social-run", "--seed", "1",
                     "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""


def test_benchmark_json_matches_the_code():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} \
        == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == spans.UNITS
