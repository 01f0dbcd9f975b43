import json

import pytest

from repuchain import cli, scenarios
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


# -- exit codes -----------------------------------------------------------------


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
])
def test_usage_errors_exit_two(smoke_config, tmp_path, capsys, argv, message):
    argv = [a.format(missing=tmp_path / "nope.json") for a in argv]
    if "--config" not in argv:
        argv = ["--config", str(smoke_config), *argv]
    assert cli.main(["run", "--out", str(tmp_path / "out"), *argv]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_existing_output_needs_overwrite(smoke_config, tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli(smoke_config, out, "--seeds", "1,") == 0
    assert run_cli(smoke_config, out, "--seeds", "1,") == 2
    assert "--overwrite" in capsys.readouterr().err
    assert run_cli(smoke_config, out, "--seeds", "1,", "--overwrite") == 0


def test_parallel_runs_match_serial(smoke_config, tmp_path):
    serial, parallel = tmp_path / "serial", tmp_path / "parallel"
    assert run_cli(smoke_config, serial, "--seeds", "3,4", "--parallel", "1") == 0
    assert run_cli(smoke_config, parallel, "--seeds", "3,4", "--parallel", "2") == 0
    assert aggregate(parallel)["runs"] == aggregate(serial)["runs"]


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
