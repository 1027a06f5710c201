import hashlib
import json

import numpy as np
import pytest

import oracles
from netcent import (NothingToEmit, betweenness_centrality,
                     closeness_centrality, pipeline, preferential_attachment,
                     traditional)
from netcent.cli import main
from netcent.pipeline import (RunConfig, emit_plot_data, load_config_file,
                              run_pipeline)
from test_ranking import TRADITIONAL_IDS, fixture_rankings
from netcent.io import read_scores_csv, write_edge_csv, write_scores_csv
from netcent.ranking import overlap_report, top_k
from netcent.simulate import metric_removal_set


INTERACTIONS = """\
actor,target,kind,timestamp,weight
u1,u2,retweet,,
u2,u3,retweet,,
u3,u1,mention,,
u4,u2,retweet,,
u5,u2,retweet,,
u5,u6,reply,,
u6,u7,retweet,,
u7,u8,retweet,,
u8,u9,share,,
u9,u5,retweet,,
u1,u9,mention,,
"""


@pytest.fixture
def interactions_csv(tmp_path):
    path = tmp_path / "interactions.csv"
    path.write_text(INTERACTIONS)
    return path


def run_cli(*argv):
    return main([str(a) for a in argv])


class TestRunPipeline:
    def test_single_metric_run_has_no_overlap_section(self, interactions_csv,
                                                      tmp_path):
        out = tmp_path / "out"
        cfg = RunConfig(input=str(interactions_csv), metrics=("degree_total",),
                        out=str(out), k=3)
        report = run_pipeline(cfg)
        assert list(report.metrics) == ["degree_total"]
        assert report.overlap is None
        data = json.loads((out / "report.json").read_text())
        assert data["overlap"] is None
        assert not (out / "overlap.json").exists()

    def test_all_seven_metrics_deterministic_across_runs(self, interactions_csv,
                                                         tmp_path):
        out = tmp_path / "out"
        args = ["run", "--input", interactions_csv, "--out", out,
                "--seed", "7", "--k", "5", "--simulate",
                "--sim-random-seeds", "2", "--ic-trials", "150"]
        assert run_cli(*args) == 0
        first = (out / "report.json").read_bytes()
        assert run_cli(*args) == 0
        assert (out / "report.json").read_bytes() == first
        data = json.loads(first)
        assert sorted(data["metrics"]) == ["betweenness", "closeness",
                                           "degree_total", "dic",
                                           "eigenvector", "mvc", "pc"]
        assert len(data["overlap"]["regions"]) >= 1
        assert len(data["interventions"]) == 3

    def test_worker_count_changes_nothing(self, interactions_csv, tmp_path):
        out = tmp_path / "out"
        base = ["run", "--input", interactions_csv, "--out", out, "--seed", "3",
                "--simulate", "--sim-random-seeds", "2", "--ic-trials", "120"]
        assert run_cli(*base, "--workers", "1") == 0
        one = (out / "report.json").read_bytes()
        assert run_cli(*base, "--workers", "4") == 0
        assert (out / "report.json").read_bytes() == one

    def test_score_files_are_the_same_bytes_on_every_machine(self, tmp_path):
        # every sum behind these six files goes in an order numpy fixes,
        # not one a BLAS kernel picks per CPU. mvc is left out: it goes
        # through np.log and np.exp, and numpy does not promise that their
        # SIMD kernels give identical results on different CPUs.
        edges = tmp_path / "edges.csv"
        write_edge_csv(preferential_attachment(300, 3, seed=1), edges)
        out = tmp_path / "out"
        assert run_cli("run", "--input", edges, "--format", "edges",
                       "--seed", "0", "--out", out) == 0
        pinned = {
            "degree_total": "f625ccaa98462a4cf0dcab01114ea206"
                            "1dc752da8e4d48118f0b0a2352e16024",
            "closeness": "1d1856224e5639b61c42588a878ae500"
                         "4a855a501b1e6038aab0bdd30b84b494",
            "betweenness": "7f03cb7d6c0b98e78b13e2007128d5c6"
                           "5b809f0b5b07d5730d91973c57a05b1d",
            "eigenvector": "335cfda61553fcfd5860e0ced0048626"
                           "41ee717380b7b922fca27aa199369657",
            "pc": "f7a9d8af3427995881b4a10d4a31df24"
                  "c66c81cbc9cd23ad00aecef0999c7af7",
            "dic": "49185b363a7bdba0499ca5b734097307"
                   "8105aa5cb9b27bdc36e2d07b0b342e15",
        }
        assert {m: hashlib.sha256((out / f"{m}.scores.csv").read_bytes())
                .hexdigest() for m in pinned} == pinned

    def test_config_echo_round_trips(self, interactions_csv, tmp_path):
        out = tmp_path / "out"
        cfg = RunConfig(input=str(interactions_csv), out=str(out), k=4, seed=11,
                        metrics=("degree_total", "pc", "dic"))
        run_pipeline(cfg)
        first = (out / "report.json").read_bytes()
        echoed = json.loads(first)["config"]
        run_pipeline(RunConfig.from_dict(echoed))
        assert (out / "report.json").read_bytes() == first

    def test_simulation_ranks_each_metric_once(self, interactions_csv,
                                               tmp_path, monkeypatch):
        calls = []

        def counted(sv, k):
            calls.append((sv.metric, k))
            return top_k(sv, k)

        monkeypatch.setattr(pipeline, "top_k", counted)
        out = tmp_path / "out"
        cfg = RunConfig(input=str(interactions_csv), out=str(out), k=2,
                        seed=4, metrics=("degree_total", "pc"), simulate=True,
                        sim_model="reachability", sim_random_seeds=2)
        report = run_pipeline(cfg)
        assert sorted(calls) == [("degree_total", 2), ("pc", 2)]
        for metric in cfg.metrics:
            sv = read_scores_csv(out / f"{metric}.scores.csv")
            assert report.metrics[metric]["top"] == \
                top_k(sv, 2).to_dict()["entries"]

    @pytest.mark.parametrize("k", [1, 3, 10])
    def test_removal_sets_read_rankings_to_k_only(self, k):
        g = preferential_attachment(200, 3, seed=2)
        cfg = RunConfig(k=k, seed=5)
        vectors = pipeline.compute_metrics(g, cfg)
        shallow = {m: top_k(sv, k) for m, sv in vectors.items()}
        deep = {m: top_k(sv, sv.n) for m, sv in vectors.items()}
        for strategy in ("traditional_union", "combined_union", "single:pc"):
            natural = len(pipeline.removal_for(g, deep, strategy, cfg, None))
            for budget in (None, natural - 1, natural, natural + 5):
                assert pipeline.removal_for(g, shallow, strategy, cfg, budget) \
                    == pipeline.removal_for(g, deep, strategy, cfg, budget)

    def test_missing_input_names_path(self, tmp_path, capsys):
        rc = run_cli("run", "--input", tmp_path / "absent.csv",
                     "--out", tmp_path / "o")
        assert rc == 2
        assert "absent.csv" in capsys.readouterr().err

    def test_unknown_metric_is_usage_error(self, interactions_csv, tmp_path,
                                           capsys):
        rc = run_cli("run", "--input", interactions_csv,
                     "--out", tmp_path / "o", "--metrics", "katz")
        assert rc == 1
        assert "katz" in capsys.readouterr().err

    def test_correlation_stage(self, interactions_csv, tmp_path):
        attrs = tmp_path / "attrs.csv"
        attrs.write_text("node,retweet_count\n" + "\n".join(
            f"u{i},{i * 10}" for i in range(1, 10)) + "\n")
        out = tmp_path / "out"
        cfg = RunConfig(input=str(interactions_csv), out=str(out),
                        metrics=("pc", "dic"), attributes=str(attrs),
                        correlate=("pc:retweet_count",), seed=1)
        report = run_pipeline(cfg)
        assert len(report.correlations) == 1
        entry = report.correlations[0]
        assert entry["metric"] == "pc" and entry["n_effective"] == 9
        assert -1.0 <= entry["rho"] <= 1.0


class TestConfigFile:
    def test_file_values_and_flag_override(self, interactions_csv, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text(f"""\
[run]
input = {interactions_csv}
metrics = degree_total, pc
k = 4
seed = 9
out = {tmp_path / 'from_file'}

[pc]
damping = 0.7
""")
        assert run_cli("run", "--config", ini) == 0
        data = json.loads((tmp_path / "from_file" / "report.json").read_text())
        assert data["config"]["k"] == 4
        assert data["config"]["pc_damping"] == 0.7

        assert run_cli("run", "--config", ini, "--k", "2",
                       "--out", tmp_path / "flags_win") == 0
        data = json.loads((tmp_path / "flags_win" / "report.json").read_text())
        assert data["config"]["k"] == 2
        assert data["config"]["pc_damping"] == 0.7

    def test_unknown_key_rejected(self, tmp_path):
        ini = tmp_path / "bad.ini"
        ini.write_text("[run]\nmystery = 1\n")
        with pytest.raises(Exception):
            load_config_file(ini)


class TestEmitPlots:
    def make_report_dict(self):
        overlap = overlap_report(fixture_rankings(), TRADITIONAL_IDS)
        return {"version": "x", "config": {}, "graph": {},
                "metrics": {"degree_total": {"top": [
                    {"rank": 1, "node": "26", "score": 10.0},
                    {"rank": 2, "node": 'a,"b"', "score": 0.5}]}},
                "overlap": overlap.to_dict(), "correlations": [],
                "interventions": []}

    def test_region_rows_match_overlap(self, tmp_path):
        report = self.make_report_dict()
        paths = emit_plot_data(report, tmp_path)
        venn = (tmp_path / "venn_regions.csv").read_text().splitlines()
        assert venn[0] == "metrics,count"
        assert "betweenness&degree_total&eigenvector,2" in venn
        assert "closeness,10" in venn
        assert len(venn) == 1 + 7
        bars = (tmp_path / "topk_bars.csv").read_text().splitlines()
        assert bars[1] == "degree_total,1,26,10.0"
        assert len(paths) == 2
        regions = report["overlap"]["regions"]
        assert (tmp_path / "venn_regions.csv").read_bytes().decode() == \
            oracles.csv_writer_text([["metrics", "count"]] + [
                ["&".join(r["metrics"]), r["count"]] for r in regions])
        assert (tmp_path / "topk_bars.csv").read_bytes().decode() == \
            oracles.csv_writer_text([
                ["metric", "rank", "node_label", "score"],
                ["degree_total", 1, "26", "10.0"],
                ["degree_total", 2, 'a,"b"', "0.5"]])

    def test_no_overlap_section(self, tmp_path):
        with pytest.raises(NothingToEmit):
            emit_plot_data({"metrics": {}, "overlap": None}, tmp_path)

    def test_cli_round_trip(self, interactions_csv, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("run", "--input", interactions_csv, "--out", out,
                       "--metrics", "degree_total,pc", "--seed", "1") == 0
        plots = tmp_path / "plots"
        assert run_cli("emit-plots", "--report", out / "report.json",
                       "--out", plots) == 0
        assert (plots / "venn_regions.csv").exists()
        assert (plots / "topk_bars.csv").exists()

    def test_label_utf8_cannot_encode_is_data_error(self, tmp_path, capsys):
        data = tmp_path / "four.csv"
        data.write_text("actor,target\na,b\nb,c\nc,d\nd,a\n")
        out = tmp_path / "out"
        assert run_cli("run", "--input", data, "--out", out,
                       "--metrics", "degree_total,pc") == 0
        report = out / "report.json"
        text = report.read_text()
        assert '"node": "a"' in text
        report.write_text(text.replace('"node": "a"', '"node": "a\\ud800"'))
        capsys.readouterr()
        assert run_cli("emit-plots", "--report", report,
                       "--out", tmp_path / "plots") == 2
        err = capsys.readouterr().err
        assert str(report) in err and "'\\ud800'" in err

    def test_report_that_is_not_json_is_data_error(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        report.write_text("{not json")
        assert run_cli("emit-plots", "--report", report,
                       "--out", tmp_path) == 2
        assert str(report) in capsys.readouterr().err

    @pytest.mark.parametrize("text, cause", [
        ("[]", "'list' object has no attribute 'get'"),
        ('{"overlap": {"regions": [{"metrics": ["a"]}]}}', "KeyError: 'count'"),
        ('{"overlap": {"regions": [{"metrics": ["a"], "count": 1}]},'
         ' "metrics": {"a": {"top": [{"rank": 1, "node": 5, "score": 1.0}]}}}',
         "node label is not a string"),
    ])
    def test_json_not_shaped_like_a_report_is_data_error(
            self, tmp_path, capsys, text, cause):
        report = tmp_path / "report.json"
        report.write_text(text)
        assert run_cli("emit-plots", "--report", report,
                       "--out", tmp_path) == 2
        err = capsys.readouterr().err
        assert str(report) in err and cause in err
        assert not list(tmp_path.glob("*.csv"))


class TestStandaloneCommands:
    def test_ingest_writes_canonical_edges(self, interactions_csv, tmp_path,
                                           capsys):
        out = tmp_path / "edges.csv"
        assert run_cli("ingest", "--input", interactions_csv,
                       "--direction", "endorsement", "--out", out) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "src,dst,weight"
        assert any(ln.startswith("u1,u2,") for ln in lines)

    def test_ingest_reads_an_edge_list_with_format_edges(self, tmp_path,
                                                         capsys):
        edges = tmp_path / "e.csv"
        edges.write_text("src,dst,weight\na,b,2.0\nb,c,1.0\nc,a,0.5\n")
        out = tmp_path / "out.csv"
        assert run_cli("ingest", "--input", edges, "--format", "edges",
                       "--out", out) == 0
        assert out.read_text() == edges.read_text()
        assert "3 nodes, 3 edges" in capsys.readouterr().out

    def test_compute_then_compare(self, interactions_csv, tmp_path, capsys):
        out = tmp_path / "scores"
        assert run_cli("compute", "--input", interactions_csv, "--out", out,
                       "--metrics", "degree_total,pc,dic", "--seed", "2") == 0
        overlap_path = tmp_path / "overlap.json"
        assert run_cli("compare",
                       "--scores", out / "degree_total.scores.csv",
                       out / "pc.scores.csv", out / "dic.scores.csv",
                       "--k", "4", "--out", overlap_path) == 0
        payload = json.loads(overlap_path.read_text())
        assert payload["union_traditional"]
        assert payload["coverage_gain_pct"] >= 0.0
        seen = {n for region in payload["regions"] for n in region["nodes"]}
        assert seen == set(payload["union_all"])

    def test_compare_requires_two_rankings(self, interactions_csv, tmp_path,
                                           capsys):
        out = tmp_path / "scores"
        run_cli("compute", "--input", interactions_csv, "--out", out,
                "--metrics", "degree_total", "--seed", "2")
        rc = run_cli("compare", "--scores", out / "degree_total.scores.csv")
        assert rc == 1

    def test_correlate_standalone(self, interactions_csv, tmp_path, capsys):
        out = tmp_path / "scores"
        run_cli("compute", "--input", interactions_csv, "--out", out,
                "--metrics", "pc", "--seed", "2")
        attrs = tmp_path / "attrs.csv"
        attrs.write_text("node,retweet_count\n" + "\n".join(
            f"u{i},{i}" for i in range(1, 10)) + "\n")
        capsys.readouterr()
        assert run_cli("correlate", "--scores", out / "pc.scores.csv",
                       "--attributes", attrs, "--proxy", "retweet_count") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["proxy"] == "retweet_count"

    def test_simulate_standalone(self, interactions_csv, tmp_path, capsys):
        result_path = tmp_path / "sim.json"
        assert run_cli("simulate", "--input", interactions_csv,
                       "--seeds", "u1", "--model", "reachability",
                       "--remove", "u2", "--out", result_path) == 0
        payload = json.loads(result_path.read_text())
        assert payload["removed"] == ["u2"]
        assert payload["baseline_volume"] >= payload["treated_volume"]

    def test_simulate_reads_one_label_per_line(self, interactions_csv,
                                               tmp_path, capsys):
        removal = tmp_path / "removal.txt"
        removal.write_text("  u2 \n\n\tu3\n   \n")
        result_path = tmp_path / "sim.json"
        assert run_cli("simulate", "--input", interactions_csv,
                       "--seeds", "u1", "--model", "reachability",
                       "--removal-file", removal, "--out", result_path) == 0
        assert json.loads(result_path.read_text())["removed"] == ["u2", "u3"]

    def test_removal_file_byte_not_utf8_is_data_error(self, interactions_csv,
                                                      tmp_path, capsys):
        removal = tmp_path / "removal.txt"
        removal.write_bytes(b"u2\n\xff\n")
        assert run_cli("simulate", "--input", interactions_csv,
                       "--seeds", "u1", "--model", "reachability",
                       "--removal-file", removal) == 2
        err = capsys.readouterr().err
        assert "line 2" in err and "0xff" in err

    def test_simulate_random_strategy_needs_no_scores(self, interactions_csv,
                                                      tmp_path, capsys):
        result_path = tmp_path / "sim.json"
        assert run_cli("simulate", "--input", interactions_csv,
                       "--seeds", "u1,u5", "--model", "reachability",
                       "--strategy", "random", "--budget", "3",
                       "--seed", "9", "--out", result_path) == 0
        payload = json.loads(result_path.read_text())
        assert len(payload["removed"]) == 3

    def test_simulate_matches_the_pipeline_intervention(self, tmp_path):
        g = preferential_attachment(80, 2, seed=3)
        src, dst, _ = g.edge_arrays()
        interactions_csv = tmp_path / "interactions.csv"
        interactions_csv.write_text("actor,target\n" + "".join(
            f"{g.labels[s]},{g.labels[d]}\n" for s, d in zip(src, dst)))
        out = tmp_path / "out"
        cfg = RunConfig(input=str(interactions_csv), out=str(out), seed=5, k=1,
                        simulate=True, sim_random_seeds=2, sim_p=0.4,
                        sim_trials=150,
                        sim_strategies=("traditional_union", "combined_union"))
        entry = run_pipeline(cfg).interventions[0]
        scores = sorted(out.glob("*.scores.csv"))
        natural = metric_removal_set(
            {sv.metric: top_k(sv, sv.n) for sv in map(read_scores_csv, scores)},
            "traditional_union", k=1)
        assert entry["budget"] > len(natural)  # the set is padded

        result_path = tmp_path / "sim.json"
        assert run_cli("simulate", "--input", interactions_csv,
                       "--random-seeds", "2", "--ic-p", "0.4",
                       "--ic-trials", "150", "--seed", "5", "--k", "1",
                       "--strategy", "traditional_union",
                       "--budget", entry["budget"], "--scores", *scores,
                       "--out", result_path) == 0
        payload = json.loads(result_path.read_text())
        for key in ("removed", "model", "baseline_volume", "treated_volume",
                    "reduction_pct", "baseline_se", "treated_se",
                    "difference_se"):
            assert payload[key] == entry[key], key

    def test_usage_error_exit_code(self, capsys):
        # compute never simulates, so it takes no cascade flags
        for argv in (["compute", "--nope"],
                     ["compute", "--input", "data.csv", "--ic-p", "0.3"]):
            assert run_cli(*argv) == 1, argv

    def test_missing_subcommand_is_usage_error(self, capsys):
        assert main([]) == 1

    def test_missing_report_file_is_data_error(self, tmp_path, capsys):
        assert run_cli("emit-plots", "--report", tmp_path / "gone.json",
                       "--out", tmp_path) == 2
        assert "gone.json" in capsys.readouterr().err


class TestComputeMetrics:
    """Exact closeness and betweenness share one Brandes traversal."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """Count the calls of the pipeline's closeness and betweenness,
        and the betweenness calls that also filled closeness."""
        seen = {"closeness": 0, "betweenness": 0, "shared": 0}
        closeness = pipeline.closeness_centrality
        betweenness = pipeline.betweenness_centrality

        def counted_closeness(*args, **kwargs):
            seen["closeness"] += 1
            return closeness(*args, **kwargs)

        def counted_betweenness(*args, **kwargs):
            seen["betweenness"] += 1
            seen["shared"] += kwargs.get("harmonic") is not None
            return betweenness(*args, **kwargs)

        monkeypatch.setattr(pipeline, "closeness_centrality", counted_closeness)
        monkeypatch.setattr(pipeline, "betweenness_centrality",
                            counted_betweenness)
        return seen

    @pytest.mark.parametrize("settings,shared", [
        ({}, True),
        ({"closeness_mode": "exact", "betweenness_mode": "exact"}, True),
        ({"closeness_mode": "exact", "betweenness_mode": "auto"}, True),
        ({"closeness_mode": "sampled", "closeness_samples": 40}, False),
        ({"betweenness_mode": "sampled", "betweenness_samples": 40}, False),
        ({"closeness_weighted": True}, False),
        ({"metrics": ("closeness", "pc")}, False),
        ({"metrics": ("betweenness", "pc")}, False),
    ])
    def test_shared_pass_exactly_when_both_exact_and_unweighted(
            self, calls, settings, shared):
        g = preferential_attachment(120, 3, seed=4)
        cfg = RunConfig(**{"metrics": ("degree_total", "closeness",
                                       "betweenness", "pc"), **settings})
        got = pipeline.compute_metrics(g, cfg)
        assert list(got) == list(cfg.metrics)
        closeness = "closeness" in cfg.metrics
        betweenness = "betweenness" in cfg.metrics
        assert calls == {"closeness": int(closeness and not shared),
                         "betweenness": int(betweenness),
                         "shared": int(shared)}
        for metric, sv in got.items():
            want = pipeline.compute_metric(g, metric, cfg)
            assert (sv.metric, sv.labels, sv.params) == \
                (want.metric, want.labels, want.params)
            assert np.array_equal(sv.scores, want.scores), metric

    def test_auto_mode_above_the_exact_limit_is_not_shared(self, calls,
                                                          monkeypatch):
        g = preferential_attachment(120, 3, seed=4)
        monkeypatch.setattr(traditional, "EXACT_NODE_LIMIT", g.n - 1)
        pipeline.compute_metrics(g, RunConfig(
            metrics=("closeness", "betweenness"), closeness_mode="exact",
            betweenness_samples=40))
        assert calls == {"closeness": 1, "betweenness": 1, "shared": 0}

    def test_compute_and_run_write_the_same_score_files(
            self, interactions_csv, tmp_path, capsys):
        flags = ["--input", interactions_csv, "--metrics",
                 "closeness,betweenness", "--closeness-mode", "exact"]
        assert run_cli("compute", *flags, "--out", tmp_path / "c") == 0
        assert run_cli("run", *flags, "--out", tmp_path / "r") == 0
        g = pipeline.load_graph(RunConfig(input=str(interactions_csv)))
        for sv in (closeness_centrality(g, "exact"),
                   betweenness_centrality(g, "exact")):
            name = f"{sv.metric}.scores.csv"
            write_scores_csv(sv, tmp_path / name)
            want = (tmp_path / name).read_bytes()
            assert (tmp_path / "c" / name).read_bytes() == want
            assert (tmp_path / "r" / name).read_bytes() == want


class TestRunConfigValidation:
    def test_bad_values_rejected(self):
        from netcent import InvalidParameter
        for kwargs in ({"format": "parquet"}, {"direction": "sideways"},
                       {"k": 0}, {"sim_budget": "uneven"},
                       {"metrics": ("katz",)}, {"closeness_mode": "fast"},
                       {"betweenness_mode": "fast"}, {"mvc_init": "zero"},
                       {"mvc_exposure": "degree"}, {"sim_model": "sir"},
                       {"sim_strategies": ("bogus",)},
                       {"sim_strategies": ("single",)},
                       {"sim_strategies": ("single:katz",)},
                       {"sim_strategies": ("random:pc",)},
                       {"metrics": ("pc",), "sim_strategies": ("single:dic",)}):
            with pytest.raises(InvalidParameter):
                RunConfig(input="x", **kwargs)

    def test_degree_alias_and_dedup(self):
        cfg = RunConfig(input="x", metrics=("degree", "degree_total", "pc"),
                        sim_strategies=("single:degree", "random"))
        assert cfg.metrics == ("degree_total", "pc")
        assert cfg.sim_strategies == ("single:degree_total", "random")

    def test_single_metric_strategy_in_pipeline(self, interactions_csv,
                                                tmp_path):
        out = tmp_path / "out"
        cfg = RunConfig(input=str(interactions_csv), out=str(out), seed=2,
                        metrics=("degree_total", "pc"), simulate=True,
                        sim_model="reachability", sim_seeds=("u1", "u4"),
                        sim_strategies=("single:pc", "random"))
        report = run_pipeline(cfg)
        assert [e["strategy"] for e in report.interventions] \
            == ["single:pc", "random"]
