"""The run configuration surface: INI keys and command-line flags.

The tables pin every ``[section] key`` and every flag of ``run``,
``compute`` and ``simulate`` to the RunConfig field it sets, so a change
to how the surface is declared cannot silently drop or rename one.
"""

import contextlib
import io

import pytest

import netcent.cli
from netcent.errors import InvalidParameter
from netcent.novel import DicConfig, MvcConfig, PcConfig
from netcent.pipeline import RunConfig, load_config_file
from netcent.simulate import CascadeConfig
from netcent.traditional import PowerIterationConfig

# (section, key, raw value, field, parsed value); every value differs
# from the field's default
INI_ENTRIES = [
    ("run", "input", "data.csv", "input", "data.csv"),
    ("run", "format", "edges", "format", "edges"),
    ("run", "direction", "endorsement", "direction", "endorsement"),
    ("run", "metrics", "pc, dic", "metrics", ("pc", "dic")),
    ("run", "k", "7", "k", 7),
    ("run", "seed", "5", "seed", 5),
    ("run", "out", "results", "out", "results"),
    ("run", "attributes", "attrs.csv", "attributes", "attrs.csv"),
    ("run", "emit_plots", "true", "emit_plots", True),
    ("pc", "damping", "0.5", "pc_damping", 0.5),
    ("pc", "tolerance", "1e-6", "pc_tolerance", 1e-6),
    ("pc", "max_iterations", "50", "pc_max_iterations", 50),
    ("pc", "weighted", "yes", "pc_weighted", True),
    ("pc", "reverse", "false", "pc_reverse", False),
    ("eigenvector", "tolerance", "1e-7", "eig_tolerance", 1e-7),
    ("eigenvector", "max_iterations", "60", "eig_max_iterations", 60),
    ("eigenvector", "reverse", "on", "eig_reverse", True),
    ("mvc", "steps", "3", "mvc_steps", 3),
    ("mvc", "init", "attribute", "mvc_init", "attribute"),
    ("mvc", "attribute", "vuln", "mvc_attribute", "vuln"),
    ("mvc", "exposure_mode", "out_degree", "mvc_exposure", "out_degree"),
    ("dic", "steps", "4", "dic_steps", 4),
    ("dic", "reverse", "0", "dic_reverse", False),
    ("betweenness", "mode", "sampled", "betweenness_mode", "sampled"),
    ("betweenness", "sample_size", "300", "betweenness_samples", 300),
    ("closeness", "mode", "exact", "closeness_mode", "exact"),
    ("closeness", "sample_size", "200", "closeness_samples", 200),
    ("closeness", "weighted", "1", "closeness_weighted", True),
    ("correlate", "pairs", "pc:age, dic:age", "correlate",
     ("pc:age", "dic:age")),
    ("simulate", "enabled", "true", "simulate", True),
    ("simulate", "model", "reachability", "sim_model", "reachability"),
    ("simulate", "p", "0.3", "sim_p", 0.3),
    ("simulate", "trials", "50", "sim_trials", 50),
    ("simulate", "seeds", "u1, u2", "sim_seeds", ("u1", "u2")),
    ("simulate", "random_seeds", "4", "sim_random_seeds", 4),
    ("simulate", "strategies", "random, single:pc", "sim_strategies",
     ("random", "single:pc")),
    ("simulate", "budget", "natural", "sim_budget", "natural"),
    ("simulate", "weight_scaled", "true", "sim_weight_scaled", True),
]

RUN, COMPUTE, SIMULATE = "run", "compute", "simulate"
METRIC_COMMANDS = (RUN, COMPUTE)
EVERY = (RUN, COMPUTE, SIMULATE)

# (commands, flag arguments, field, parsed value)
FLAGS = [
    (EVERY, ["--input", "data.csv"], "input", "data.csv"),
    (EVERY, ["--format", "edges"], "format", "edges"),
    (EVERY, ["--direction", "endorsement"], "direction", "endorsement"),
    (METRIC_COMMANDS, ["--metrics", "pc,dic"], "metrics", ("pc", "dic")),
    ((RUN, SIMULATE), ["--k", "7"], "k", 7),
    (EVERY, ["--seed", "5"], "seed", 5),
    (METRIC_COMMANDS, ["--out", "results"], "out", "results"),
    (METRIC_COMMANDS, ["--attributes", "attrs.csv"], "attributes",
     "attrs.csv"),
    ((RUN,), ["--emit-plots"], "emit_plots", True),
    # correlation needs an attributes file, which RunConfig checks
    ((RUN,), ["--correlate", "pc:age,dic:age", "--attributes", "attrs.csv"],
     "correlate", ("pc:age", "dic:age")),
    ((RUN,), ["--simulate"], "simulate", True),
    ((RUN,), ["--sim-seeds", "u1,u2"], "sim_seeds", ("u1", "u2")),
    ((SIMULATE,), ["--seeds", "u1,u2"], "sim_seeds", ("u1", "u2")),
    ((RUN,), ["--sim-random-seeds", "4"], "sim_random_seeds", 4),
    ((SIMULATE,), ["--random-seeds", "4"], "sim_random_seeds", 4),
    ((RUN,), ["--sim-strategies", "random,single:pc"], "sim_strategies",
     ("random", "single:pc")),
    ((RUN,), ["--sim-budget", "natural"], "sim_budget", "natural"),
    ((RUN,), ["--sim-model", "reachability"], "sim_model", "reachability"),
    ((SIMULATE,), ["--model", "reachability"], "sim_model", "reachability"),
    ((RUN, SIMULATE), ["--ic-p", "0.3"], "sim_p", 0.3),
    ((RUN, SIMULATE), ["--ic-trials", "50"], "sim_trials", 50),
    ((RUN, SIMULATE), ["--ic-weight-scaled"], "sim_weight_scaled", True),
    (METRIC_COMMANDS, ["--pc-damping", "0.5"], "pc_damping", 0.5),
    (METRIC_COMMANDS, ["--pc-tolerance", "1e-6"], "pc_tolerance", 1e-6),
    (METRIC_COMMANDS, ["--pc-max-iterations", "50"], "pc_max_iterations", 50),
    (METRIC_COMMANDS, ["--pc-weighted"], "pc_weighted", True),
    (METRIC_COMMANDS, ["--pc-reverse", "false"], "pc_reverse", False),
    (METRIC_COMMANDS, ["--eig-tolerance", "1e-7"], "eig_tolerance", 1e-7),
    (METRIC_COMMANDS, ["--eig-max-iterations", "60"], "eig_max_iterations",
     60),
    (METRIC_COMMANDS, ["--eig-reverse", "on"], "eig_reverse", True),
    (METRIC_COMMANDS, ["--mvc-steps", "3"], "mvc_steps", 3),
    (METRIC_COMMANDS, ["--mvc-init", "attribute"], "mvc_init", "attribute"),
    (METRIC_COMMANDS, ["--mvc-attribute", "vuln"], "mvc_attribute", "vuln"),
    (METRIC_COMMANDS, ["--mvc-exposure", "out_degree"], "mvc_exposure",
     "out_degree"),
    (METRIC_COMMANDS, ["--dic-steps", "4"], "dic_steps", 4),
    (METRIC_COMMANDS, ["--dic-reverse", "0"], "dic_reverse", False),
    (METRIC_COMMANDS, ["--betweenness-mode", "sampled"], "betweenness_mode",
     "sampled"),
    (METRIC_COMMANDS, ["--betweenness-samples", "300"], "betweenness_samples",
     300),
    (METRIC_COMMANDS, ["--closeness-mode", "exact"], "closeness_mode",
     "exact"),
    (METRIC_COMMANDS, ["--closeness-samples", "200"], "closeness_samples",
     200),
    (METRIC_COMMANDS, ["--closeness-weighted"], "closeness_weighted", True),
]

BASE_ARGS = {
    RUN: ["run", "--input", "base.csv"],
    COMPUTE: ["compute", "--input", "base.csv", "--out", "base-out"],
    SIMULATE: ["simulate", "--input", "base.csv"],
}


class _Captured(Exception):
    pass


@pytest.fixture
def parse_config(monkeypatch):
    """CLI arguments -> the RunConfig the command would run with."""
    seen = []

    def capture(cfg, *rest):
        seen.append(cfg)
        raise _Captured

    # each command hands its config to one of these before any work
    monkeypatch.setattr(netcent.cli, "run_pipeline", capture)
    monkeypatch.setattr(netcent.cli, "load_graph", capture)

    def parse(argv):
        seen.clear()
        netcent.cli.main(argv)
        assert len(seen) == 1, f"no config reached the command: {argv}"
        return seen[0]

    return parse


def _ini_text(entries):
    sections: dict[str, list[str]] = {}
    for section, key, raw, *_ in entries:
        sections.setdefault(section, []).append(f"{key} = {raw}\n")
    return "".join(f"[{s}]\n" + "".join(lines) for s, lines in sections.items())


def test_every_ini_key_loads_into_its_field(tmp_path):
    ini = tmp_path / "all.ini"
    ini.write_text(_ini_text(INI_ENTRIES))
    cfg = RunConfig.from_dict(load_config_file(ini))
    default = RunConfig()
    for section, key, _, name, value in INI_ENTRIES:
        assert getattr(cfg, name) == value, f"[{section}] {key}"
        assert getattr(default, name) != value, f"[{section}] {key}"
    expected = RunConfig(**{name: value for *_, name, value in INI_ENTRIES})
    assert cfg.to_dict() == expected.to_dict()


@pytest.mark.parametrize("commands,flag,name,value", FLAGS,
                         ids=[" ".join(f[1]) for f in FLAGS])
def test_every_flag_parses_into_its_field(parse_config, commands, flag, name,
                                          value):
    for command in commands:
        cfg = parse_config(BASE_ARGS[command] + flag)
        assert getattr(cfg, name) == value, command
        assert getattr(RunConfig(), name) != value


@pytest.mark.parametrize("command", EVERY)
def test_workers_flag_is_an_unknown_flag(command, capsys):
    assert netcent.cli.main(BASE_ARGS[command] + ["--workers", "3"]) == 1
    assert "unrecognized arguments: --workers 3" in capsys.readouterr().err


def test_workers_config_key_is_an_unknown_key(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[run]\ninput = data.csv\nworkers = 3\n")
    with pytest.raises(InvalidParameter,
                       match=r"unknown config key \[run\] workers"):
        load_config_file(ini)


def test_flags_override_config_file(parse_config, tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[run]\ninput = data.csv\nk = 4\n\n[pc]\nreverse = true\n")
    cfg = parse_config(["run", "--config", str(ini), "--k", "2"])
    assert (cfg.input, cfg.k, cfg.pc_reverse) == ("data.csv", 2, True)


@pytest.mark.parametrize("section,key,raw", [
    ("pc", "reverse", "auto"), ("dic", "reverse", "ture"),
    ("simulate", "enabled", "ye"), ("closeness", "weighted", ""),
])
def test_unknown_boolean_spelling_exits_1_naming_the_key(tmp_path, capsys,
                                                         section, key, raw):
    ini = tmp_path / "run.ini"
    ini.write_text(f"[run]\ninput = data.csv\nout = {tmp_path / 'out'}\n\n"
                   f"[{section}]\n{key} = {raw}\n")
    assert netcent.cli.main(["run", "--config", str(ini)]) == 1
    assert f"[{section}] {key}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_omitted_boolean_keeps_the_auto_default(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[pc]\ndamping = 0.5\n")
    cfg = RunConfig.from_dict(load_config_file(ini))
    assert (cfg.pc_reverse, cfg.eig_reverse, cfg.dic_reverse) \
        == (None, None, None)


@pytest.mark.parametrize("section,key,raw", [
    ("closeness", "mode", "fast"), ("betweenness", "mode", "fast"),
    ("mvc", "init", "zero"), ("mvc", "exposure_mode", "degree"),
    ("simulate", "model", "sir"), ("run", "format", "parquet"),
    ("run", "direction", "sideways"), ("simulate", "budget", "uneven"),
])
def test_file_value_outside_its_choices_fails_before_ingest(
        tmp_path, capsys, section, key, raw):
    data = tmp_path / "interactions.csv"
    data.write_text("actor,target,kind,timestamp,weight\nu1,u2,retweet,,\n")
    out = tmp_path / "out"
    ini = tmp_path / "run.ini"
    ini.write_text(_ini_text([("run", "input", data), ("run", "out", out),
                              (section, key, raw)]))
    assert netcent.cli.main(["run", "--config", str(ini)]) == 1
    assert raw in capsys.readouterr().err
    assert not out.exists()


# a bad value of each run parameter, and the call to the class that owns
# its check
BAD_VALUES = [
    (["--pc-damping", "1.5"], lambda: PcConfig(damping=1.5)),
    (["--pc-tolerance", "0"], lambda: PcConfig(tolerance=0)),
    (["--eig-max-iterations", "0"],
     lambda: PowerIterationConfig(max_iterations=0)),
    (["--mvc-steps", "0"], lambda: MvcConfig(steps=0)),
    (["--dic-steps", "0"], lambda: DicConfig(steps=0)),
    (["--ic-p", "1.5"], lambda: CascadeConfig(seeds=("u1",), p=1.5)),
    (["--ic-trials", "0"], lambda: CascadeConfig(seeds=("u1",), trials=0)),
    (["--correlate", "pc:age"], lambda: RunConfig(correlate=("pc:age",))),
]


@pytest.mark.parametrize("flag,owner", BAD_VALUES,
                         ids=[" ".join(f) for f, _ in BAD_VALUES])
def test_bad_value_fails_before_ingest(tmp_path, capsys, flag, owner):
    """Reading the missing input would exit 2; exit 1 with the owning
    class's message, after the flag, shows the value was checked first."""
    with pytest.raises(InvalidParameter) as owned:
        owner()
    out = tmp_path / "out"
    assert netcent.cli.main(["run", "--input", str(tmp_path / "missing.csv"),
                             "--out", str(out), *flag]) == 1
    # RunConfig's own checks name the flag themselves
    message = str(owned.value).removeprefix(f"{flag[0]}: ")
    assert f"error: {flag[0]}: {message}\n" in capsys.readouterr().err
    assert not out.exists()


def _help_text(parser, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as done:
        parser.parse_args(argv)
    assert done.value.code == 0
    return out.getvalue()


@pytest.mark.parametrize("command", list(netcent.cli._COMMANDS))
def test_subcommand_help_matches_the_full_parser(command):
    """A run builds only its own subcommand's flags; its help must not
    tell them apart from the parser that builds every subcommand."""
    full = _help_text(netcent.cli.build_parser(), [command, "--help"])
    assert "usage: netcent " + command in full
    assert _help_text(netcent.cli.build_parser(command),
                      [command, "--help"]) == full


def test_help_version_and_bad_commands_see_every_subcommand(capsys):
    top = _help_text(netcent.cli.build_parser(), ["--help"])
    assert all(command in top for command in netcent.cli._COMMANDS)
    with pytest.raises(SystemExit):
        netcent.cli.main(["--help"])
    assert capsys.readouterr().out == top
    for argv in ([], ["bogus"], ["--bogus"]):
        assert netcent.cli.main(argv) == 1
    err = capsys.readouterr().err
    assert "required: command" in err
    assert "invalid choice: 'bogus'" in err and "emit-plots" in err
