import json
from pathlib import Path

import pytest

from conftest import SCENARIOS_DIR
from repuchain import cli, metrics_oracle, scenarios
from repuchain.sim_engine import ConfigError, ScenarioConfig


@pytest.fixture
def smoke_config(tmp_path):
    path = tmp_path / "smoke.json"
    path.write_text(json.dumps(scenarios.smoke()))
    return path


def run_cli(config, out, *extra):
    return cli.main(["run", "--config", str(config), "--out", str(out), *extra])


def aggregate(out):
    return json.loads((out / "aggregate.json").read_text())


# -- artifacts ------------------------------------------------------------------


def test_artifacts_match_the_golden_files(tmp_path):
    # Any change to the simulation, the analysis or the writers moves a byte.
    golden = Path(__file__).resolve().parent / "golden" / "properties_0"
    out = tmp_path / "out"
    assert run_cli(SCENARIOS_DIR / "properties_0.json", out, "--seeds", "0,") == 0
    names = sorted(p.relative_to(golden) for p in golden.rglob("*") if p.is_file())
    assert names == sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file())
    for name in names:
        assert (out / name).read_bytes() == (golden / name).read_bytes(), name


# -- exit codes -----------------------------------------------------------------


def test_one_slot_per_epoch_sqrt_run_passes_regret_bound(tmp_path):
    # One slot makes eta = sqrt(ln 1 / T) = 0; its regret and its bound are 0.
    path = tmp_path / "one_slot.json"
    path.write_text(json.dumps({**scenarios.smoke(), "eta_policy": {"kind": "PerEpochSqrt"}}))
    out = tmp_path / "out"
    assert run_cli(path, out, "--seeds", "1", "--checks", "regret-bound") == 0
    agg = aggregate(out)
    assert agg["checks"]["regret-bound"]["passed"] is True
    (provider,) = agg["runs"][0]["providers"]
    assert provider["epochs"] and all(ep["bound"] == 0.0 for ep in provider["epochs"])


def test_losses_are_written_as_floats_even_when_zero(smoke_config, tmp_path):
    # The honest smoke run penalizes no slot, so every loss is zero; the
    # summary must still write it as the float its EpochRegret field declares.
    out = tmp_path / "out"
    assert run_cli(smoke_config, out, "--seeds", "0,") == 0
    (provider,) = json.loads((out / "seed_0" / "summary.json").read_text())["providers"]
    assert provider["epochs"]
    for ep in provider["epochs"]:
        assert type(ep["L_T"]) is float and type(ep["regret"]) is float, ep
    assert type(provider["cumulative_regret"]) is float


def test_world_that_verifies_nothing_reports_its_open_epoch(tmp_path):
    # The one collector never vouches +1, so no draw is ever verified. The
    # epoch it screened in is still reported, open and empty, and its regret
    # (0) is within the bound ln(u)/eta.
    path = tmp_path / "minus.json"
    path.write_text(json.dumps({**scenarios.smoke(), "strategies": [{"kind": "AlwaysMinus"}]}))
    out = tmp_path / "out"
    assert run_cli(path, out, "--seeds", "0,", "--checks", "regret-bound") == 0
    agg = aggregate(out)
    assert agg["checks"]["regret-bound"]["passed"] is True
    (provider,) = agg["runs"][0]["providers"]
    (epoch,) = provider["epochs"]
    assert (epoch["epoch_index"], epoch["T"], epoch["closed"]) == (0, 0, False)
    assert epoch["L_T"] == 0.0 and type(epoch["L_T"]) is float
    assert provider["T_total"] == 0


def test_number_past_the_float_range_exits_two(tmp_path, capsys):
    path = tmp_path / "huge_mu.json"
    path.write_text(json.dumps({**scenarios.smoke(), "mu": 10**400}))
    assert run_cli(path, tmp_path / "out", "--seeds", "1") == 2
    assert "error: field 'mu': expected positive number" in capsys.readouterr().err


def test_integer_past_two_to_the_64_exits_two(tmp_path, capsys):
    path = tmp_path / "huge_gen_rate.json"
    path.write_text(json.dumps({**scenarios.smoke(), "gen_rate": 10**400}))
    assert run_cli(path, tmp_path / "out", "--seeds", "1") == 2
    assert "error: field 'gen_rate': expected integer" in capsys.readouterr().err


def test_passing_check_exits_zero(smoke_config, tmp_path):
    out = tmp_path / "out"
    assert run_cli(smoke_config, out, "--seeds", "2", "--checks", "properties") == 0
    agg = aggregate(out)
    assert agg["seeds"] == [0, 1]
    assert agg["checks"]["properties"]["passed"] is True
    assert (out / "seed_1" / "ledger.hex").is_file()


def test_failing_check_exits_one(smoke_config, tmp_path, capsys):
    # An honest smoke run has zero regret, so no scaling slope is defined.
    assert run_cli(smoke_config, tmp_path / "out", "--seeds", "1", "--checks", "scaling") == 1
    assert "check scaling: FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("argv, message", [
    (["--config", "{missing}", "--seeds", "1"], "config file not found"),
    (["--seeds", "1", "--checks", "properties,bananas"], "unknown check 'bananas'"),
    (["--seeds", "abc"], "field 'seeds': cannot parse"),
    (["--seeds", ","], "field 'seeds': no seeds"),
    (["--seeds", "1", "--parallel", "0"], "field 'parallel'"),
    (["--seeds", "1", "--parallel", "-3"], "field 'parallel'"),
    (["--seeds", "0,0"], "field 'seeds': seed 0 is listed twice"),
    (["--seeds", "3,4,3", "--parallel", "2"], "field 'seeds': seed 3 is listed twice"),
    (["--seeds", "1", "--checks", "properties,properties"],
     "field 'checks': check 'properties' is listed twice"),
    # The last --out wins, so the run's output would be the scenario file itself.
    (["--seeds", "1", "--out", "{config}"], "field 'out': cannot make directory"),
])
def test_usage_errors_exit_two(smoke_config, tmp_path, capsys, argv, message):
    argv = [a.format(missing=tmp_path / "nope.json", config=smoke_config) for a in argv]
    if "--config" not in argv:
        argv = ["--config", str(smoke_config), *argv]
    assert cli.main(["run", "--out", str(tmp_path / "out"), *argv]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


BAD_FILES = {
    "missing": None,
    "directory": None,
    "not-utf8": b'{"labels": "\xff"}',
    "invalid-json": b'{"labels": ',
    "nested-too-deeply": b"[" * 100_000,
    "number": b"5",
    "list": b"[]",
    "string": b'"x"',
    "null": b"null",
}


@pytest.mark.parametrize("kind", BAD_FILES)
@pytest.mark.parametrize("command", ["run", "oracle"])
def test_bad_input_file_exits_two_naming_it(tmp_path, capsys, command, kind):
    path = tmp_path / "input.json"
    if kind == "directory":
        path.mkdir()
    elif BAD_FILES[kind] is not None:
        path.write_bytes(BAD_FILES[kind])
    out = tmp_path / "out"
    if command == "run":
        argv = ["run", "--config", str(path), "--seeds", "1", "--out", str(out)]
    else:
        argv = ["oracle", "--instance", str(path)]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ") and str(path) in line
    assert not out.exists()


def test_existing_output_needs_overwrite(smoke_config, tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli(smoke_config, out, "--seeds", "1,") == 0
    assert run_cli(smoke_config, out, "--seeds", "1,") == 2
    assert "--overwrite" in capsys.readouterr().err
    assert run_cli(smoke_config, out, "--seeds", "1,", "--overwrite") == 0


@pytest.mark.parametrize("name", ["aggregate.json", "seed_1"])
def test_overwrite_refuses_output_of_the_other_kind(smoke_config, tmp_path, capsys, name):
    # aggregate.json must be a file and seed_<s> a directory, or the run fails after running.
    out = tmp_path / "out"
    out.mkdir()
    if name == "aggregate.json":
        (out / name).mkdir()
    else:
        (out / name).touch()
    assert run_cli(smoke_config, out, "--seeds", "1,", "--overwrite") == 2
    assert f"error: field 'out': --overwrite cannot replace {out / name}" in capsys.readouterr().err
    assert [p.name for p in out.iterdir()] == [name]


def test_parallel_runs_match_serial(smoke_config, tmp_path):
    serial, parallel = tmp_path / "serial", tmp_path / "parallel"
    assert run_cli(smoke_config, serial, "--seeds", "3,4", "--parallel", "1") == 0
    assert run_cli(smoke_config, parallel, "--seeds", "3,4", "--parallel", "2") == 0
    assert aggregate(parallel)["runs"] == aggregate(serial)["runs"]


@pytest.mark.parametrize("cpus, sizes", [(8, [2]), (1, []), (None, [])])
def test_parallel_workers_bounded_by_jobs_and_cores(smoke_config, tmp_path, monkeypatch,
                                                    cpus, sizes):
    started = []

    class RecordingPool:
        """Stands in for ProcessPoolExecutor: records max_workers, runs in process."""

        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    assert run_cli(smoke_config, tmp_path / "out", "--seeds", "3,4", "--parallel", "500") == 0
    assert started == sizes
    assert aggregate(tmp_path / "out")["seeds"] == [3, 4]


# -- seeds fail closed ----------------------------------------------------------


def test_large_lone_seed_is_refused_not_counted(smoke_config, tmp_path, capsys):
    assert run_cli(smoke_config, tmp_path / "out", "--seeds", "2319576692") == 2
    err = capsys.readouterr().err
    assert "field 'seeds'" in err and "'2319576692,'" in err


def test_negative_seed_in_list_is_refused(smoke_config, tmp_path, capsys):
    assert run_cli(smoke_config, tmp_path / "out", "--seeds=-1,") == 2
    assert "field 'seeds'" in capsys.readouterr().err


@pytest.mark.parametrize("seed", [-1, 2**64, True, "7"])
def test_config_seed_out_of_range_is_refused(tmp_path, capsys, seed):
    with pytest.raises(ConfigError, match="field 'seed'"):
        ScenarioConfig.from_dict({**scenarios.smoke(), "seed": seed})
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**scenarios.smoke(), "seed": seed}))
    assert run_cli(path, tmp_path / "out", "--seeds", "1") == 2
    assert "field 'seed'" in capsys.readouterr().err


def test_parse_seeds_accepts_the_full_range():
    assert cli.parse_seeds("3") == (0, 1, 2)
    assert cli.parse_seeds(f"0, {2**64 - 1},") == (0, 2**64 - 1)
    assert cli.parse_seeds(str(cli.MAX_SEED_COUNT)) == tuple(range(cli.MAX_SEED_COUNT))
    with pytest.raises(ValueError, match="field 'seeds'"):
        cli.parse_seeds(f"{2**64},")
    with pytest.raises(ValueError, match="field 'seeds'"):
        cli.parse_seeds("0")


# -- failed runs ----------------------------------------------------------------


def test_failed_run_keeps_its_traceback(smoke_config, tmp_path, monkeypatch, capsys):
    def explode(config):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "run", explode)
    out = tmp_path / "out"
    assert run_cli(smoke_config, out, "--seeds", "1", "--checks", "properties") == 1
    (run,) = aggregate(out)["runs"]
    assert run["error"] == "RuntimeError: boom"
    assert run["traceback"].startswith("Traceback (most recent call last):")
    assert "in explode" in run["traceback"]
    assert "run seed=0 FAILED: RuntimeError: boom" in capsys.readouterr().out


def test_failed_run_exits_one_even_when_its_check_ignores_runs(smoke_config, tmp_path,
                                                               monkeypatch):
    def explode(config):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "run", explode)
    out = tmp_path / "out"
    assert run_cli(smoke_config, out, "--seeds", "1", "--checks", "oracle-agreement") == 1
    agg = aggregate(out)
    assert agg["checks"]["oracle-agreement"]["passed"] is True
    (run,) = agg["runs"]
    assert run["traceback"].startswith("Traceback (most recent call last):")


def test_fault_in_a_check_keeps_its_traceback(smoke_config, tmp_path, monkeypatch):
    # A ValueError from the program is a fault, not bad input: it must not exit 2.
    def broken(checks, summaries):
        raise ValueError("broken check")

    monkeypatch.setattr(cli, "evaluate", broken)
    with pytest.raises(ValueError, match="broken check"):
        run_cli(smoke_config, tmp_path / "out", "--seeds", "1", "--checks", "properties")


# -- README examples -------------------------------------------------------------


README_LINES = set((SCENARIOS_DIR.parent / "README.md").read_text().splitlines())


@pytest.mark.parametrize("argv,code", [
    (["oracle", "--instance", "scenarios/oracle_uniform_invalid.json"], 0),
    (["run", "--config", "scenarios/smoke.json", "--seeds", "1", "--checks", "scaling"], 1),
], ids=["oracle", "smoke-scaling"])
def test_readme_fast_examples_print_what_the_readme_shows(tmp_path, capsys, monkeypatch,
                                                          argv, code):
    monkeypatch.chdir(SCENARIOS_DIR.parent)
    out = ["--out", str(tmp_path / "out")] if argv[0] == "run" else []
    assert cli.main(argv + out) == code
    lines = capsys.readouterr().out.splitlines()
    assert lines
    for line in lines:
        assert line in README_LINES, line


# -- oracle ----------------------------------------------------------------------


def test_shipped_oracle_instance_matches_its_builder(capsys):
    path = SCENARIOS_DIR / "oracle_uniform_invalid.json"
    assert json.loads(path.read_text()) == scenarios.oracle_uniform_invalid()
    assert cli.main(["oracle", "--instance", str(path)]) == 0
    out = capsys.readouterr().out
    assert "expected wasted verifications (prose L_T): 0.500000" in out
    assert "expected governor loss (proof-consistent L_T): 0.250000" in out


ORACLE_INSTANCE = {"labels": [[1, -1], [1, 1]], "validity": [True, False], "eta": 0.5}


def test_oracle_accepts_a_well_formed_instance(tmp_path, capsys):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(ORACLE_INSTANCE))
    assert cli.main(["oracle", "--instance", str(path)]) == 0
    assert "theorem bound" in capsys.readouterr().out


@pytest.mark.parametrize("field,value", [
    ("labels", 5),
    ("validity", False),
    ("eta", 0),
    ("eta", -0.5),
    ("eta", "x"),
    ("labels", [[5, 1], [1, 1]]),
    ("labels", [[1, -1], [1]]),
    ("labels", [[True, -1], [1, 1]]),
    ("validity", [True]),
    ("initial_reps", [0, 0, 0]),
    pytest.param("eta", 10**400, id="eta-huge"),
    pytest.param("labels", [[1.0, -1], [1, 1]], id="labels-float"),
    pytest.param("initial_reps", [10**400, 0], id="initial_reps-huge"),
    pytest.param("initial_reps", [1 << 53, 0], id="initial_reps-2^53"),
    pytest.param("initial_rep", [5, 0], id="unknown-key"),
])
def test_oracle_rejects_malformed_instance_naming_the_field(tmp_path, capsys, field, value):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps({**ORACLE_INSTANCE, field: value}))
    assert cli.main(["oracle", "--instance", str(path)]) == 2
    assert f"error: field '{field}': " in capsys.readouterr().err


def test_oracle_refuses_an_instance_over_the_budget_naming_the_count(tmp_path, capsys,
                                                                     monkeypatch):
    # Slot 0 vouches +1 on 12 invalid rows: the DP carries 2, 3, ..., 13 vectors,
    # 90 in all by the last row.
    monkeypatch.setattr(metrics_oracle, "EXACT_ORACLE_BUDGET", 89)
    path = tmp_path / "instance.json"
    path.write_text(json.dumps({"labels": [[1, -1, -1]] * 12, "validity": [False] * 12,
                                "eta": 0.5}))
    assert cli.main(["oracle", "--instance", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: the exact oracle carried 90 reputation vectors "
                            "by row 12 of 12, over its budget of 89\n")


def test_oracle_bounds_an_unequal_start_by_its_reputations(tmp_path, capsys):
    # Slot 1 starts 40 behind, so the draw follows slot 0, which vouches +1 on
    # every invalid row: regret about 10, over ln(u)/eta + eta*T/2 = 3.886294.
    path = tmp_path / "instance.json"
    path.write_text(json.dumps({"labels": [[1, -1]] * 10, "validity": [False] * 10,
                                "eta": 0.5, "initial_reps": [0, -40]}))
    assert cli.main(["oracle", "--instance", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    regret = float(lines[4].rpartition(": ")[2])
    bound = float(lines[5].rpartition(": ")[2])
    assert lines[5].startswith("theorem bound max-min rep")
    assert 9.9 < regret <= bound == pytest.approx(42.5)


def test_oracle_rejects_an_instance_missing_a_required_key(tmp_path, capsys):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps({k: v for k, v in ORACLE_INSTANCE.items() if k != "eta"}))
    assert cli.main(["oracle", "--instance", str(path)]) == 2
    assert capsys.readouterr().err == "error: field 'eta': missing\n"
