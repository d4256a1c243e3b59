import csv
import hashlib
import json

import numpy as np
import pytest

from dighydro import (
    ConfigError,
    TipPositionMap,
    hysteresis_sweep,
    load_config,
    loop_area,
    play_loop_area,
    quasi_static_loop,
    run_scenario,
    run_simulation,
    scenario_path,
    sweep,
)
from dighydro.cli import main
from dighydro.metrics import read_metrics

from conftest import collector_passes


def test_run_scenario_writes_trace_and_metrics(tmp_path):
    trace_path, metrics_path, metrics, trace = run_scenario(
        scenario_path("step_unloaded_p1"), tmp_path, {"run.duration_s": "5"}
    )
    assert trace_path.exists() and metrics_path.exists()
    assert metrics.settled
    assert read_metrics(metrics_path) == metrics
    header = trace_path.read_text().splitlines()[0]
    assert header == "t,ref,p_tube,v_tube,tip_y,hp_cmd,lp_cmd,hp_arm,lp_arm,sensed_pos,sensed_p"


def test_failed_run_leaves_no_partial_files(tmp_path, monkeypatch):
    import dighydro.experiments as exp

    def boom(*args, **kwargs):
        raise RuntimeError("mid-run failure")

    monkeypatch.setattr(exp, "run_simulation", boom)
    with pytest.raises(RuntimeError):
        run_scenario(scenario_path("step_unloaded_p1"), tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_quasi_static_loop_matches_closed_form_area():
    tmap = TipPositionMap(gain=2e-5, play_width=10e3)
    grid, up, down = quasi_static_loop(tmap, 400e3, 5e3)
    area = loop_area(grid, up, down)
    expected = play_loop_area(tmap.gain, tmap.play_width, 400e3)
    assert area == pytest.approx(expected, rel=1e-12)
    with pytest.raises(ValueError, match="twice the play width"):
        play_loop_area(tmap.gain, tmap.play_width, 2 * tmap.play_width - 1.0)
    # the two branches really are distinct in the interior
    mid = len(grid) // 2
    assert down[mid] - up[mid] == pytest.approx(2 * tmap.gain * 10e3, rel=1e-9)


def test_zero_play_width_gives_zero_area():
    tmap = TipPositionMap(gain=2e-5, play_width=0.0)
    grid, up, down = quasi_static_loop(tmap, 400e3, 5e3)
    assert np.array_equal(up, down)
    assert loop_area(grid, up, down) == 0.0


# sha256 of the bundled scenario's loop CSV, from the three-loop walk that
# the one-loop walk replaced.
HYSTERESIS_LOOP_SHA256 = "5f6bc4565dd51b7861c933d7c631f806d17854e4dff87789271f31b8dce36a39"


def test_hysteresis_sweep_emits_both_branches(tmp_path):
    csv_path, area, cfg = hysteresis_sweep(scenario_path("hysteresis"), tmp_path)
    assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == HYSTERESIS_LOOP_SHA256
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "branch,pressure_pa,tip_mm"
    branches = {line.split(",")[0] for line in lines[1:]}
    assert branches == {"up", "down"}
    assert area > 0.0


def test_fine_staircase_loop_streams_its_rows(tmp_path):
    # 80,002 rows: a tuple held per row would run the cyclic collector over
    # a hundred times (114 with two lists of row tuples).
    overrides = {"hysteresis.pressure_step_pa": "10"}
    cfg = load_config(scenario_path("hysteresis"), overrides)
    grid, up, down = quasi_static_loop(
        cfg.build_plant().tip_map, cfg.hysteresis.pressure_max_pa, cfg.hysteresis.pressure_step_pa
    )
    with collector_passes() as passes:
        csv_path, _, _ = hysteresis_sweep(scenario_path("hysteresis"), tmp_path, overrides)
    assert passes == []
    plain = tmp_path / "plain.csv"
    with open(plain, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["branch", "pressure_pa", "tip_mm"])
        writer.writerows([("up", p, y) for p, y in zip(grid.tolist(), up.tolist())])
        writer.writerows([("down", p, y) for p, y in zip(grid.tolist(), down.tolist())][::-1])
    assert len(grid) == 40_001
    assert csv_path.read_bytes() == plain.read_bytes()


def test_sweep_produces_one_row_per_value(tmp_path):
    table_path, rows = sweep(
        scenario_path("step_unloaded_p1"),
        "controller.duty",
        ["0.15", "0.22"],
        tmp_path,
        {"run.duration_s": "5"},
    )
    assert len(rows) == 2
    lines = table_path.read_text().splitlines()
    assert len(lines) == 3
    assert lines[1].startswith("0.15,step_unloaded_p1_000,")
    assert lines[2].startswith("0.22,step_unloaded_p1_001,")


def test_sweep_rejects_unknown_parameter(tmp_path):
    with pytest.raises(ConfigError):
        sweep(scenario_path("step_unloaded_p1"), "plant.nope", ["1"], tmp_path)


def test_sweep_checks_every_value_before_it_writes(tmp_path):
    out = tmp_path / "out"
    overrides = {"run.duration_s": "0.05"}
    with pytest.raises(ConfigError, match=r"\[plant\] kv_hp must be > 0"):
        sweep(scenario_path("hysteresis"), "plant.kv_hp", ["1e-8", "-1"], out, overrides)
    assert not out.exists() or list(out.iterdir()) == []


def test_sweep_rejects_run_label(tmp_path):
    # Each run's <label>_<index> label would replace the swept value.
    out = tmp_path / "out"
    with pytest.raises(ConfigError, match=r"\[run\] label"):
        sweep(scenario_path("hysteresis"), "run.label", ["a", "b"], out, {"run.duration_s": "0.05"})
    assert not out.exists() or list(out.iterdir()) == []


@pytest.mark.parametrize("n_bytes", [232, 233])
def test_sweep_refuses_a_label_its_index_suffix_overflows(tmp_path, n_bytes):
    # 232-235 bytes pass load_config alone, but <label>_000 would not.
    out = tmp_path / "out"
    overrides = {"run.duration_s": "0.05", "run.label": "x" * n_bytes}
    message = (
        "[run] label must be at most 231 bytes in UTF-8 for a sweep,"
        " which labels its runs <label>_000"
    )
    with pytest.raises(ConfigError) as exc:
        sweep(scenario_path("hysteresis"), "plant.kv_hp", ["1e-8"], out, overrides)
    assert exc.value.errors == [message]
    assert not out.exists() or list(out.iterdir()) == []


def test_sweep_runs_a_label_that_fits_with_its_index_suffix(tmp_path):
    label = "é" * 115 + "x"  # 231 bytes in UTF-8
    overrides = {"run.duration_s": "0.05", "run.label": label}
    _, rows = sweep(scenario_path("hysteresis"), "plant.kv_hp", ["1e-8"], tmp_path, overrides)
    assert len(rows) == 1 and (tmp_path / f"{label}_000_trace.csv").exists()


def test_sweep_table_quotes_values_holding_commas(tmp_path):
    values = ["0.0, 4.0", "0.0, 2.0"]
    table_path, _ = sweep(
        scenario_path("step_unloaded_p1"),
        "reference.step_levels",
        values,
        tmp_path,
        {"run.duration_s": "0.5"},
    )
    with open(table_path, newline="") as fh:
        table = list(csv.reader(fh))
    assert [len(row) for row in table] == [9, 9, 9]
    assert [row[0] for row in table[1:]] == values


def test_failed_sweep_leaves_no_files(tmp_path, monkeypatch):
    import dighydro.experiments as exp

    def fail_second(cfg):
        if cfg.plant.kv_hp == 2e-8:
            raise RuntimeError("mid-sweep failure")
        return run_simulation(cfg)

    monkeypatch.setattr(exp, "run_simulation", fail_second)
    overrides = {"run.duration_s": "0.05"}
    with pytest.raises(RuntimeError, match="mid-sweep"):
        sweep(scenario_path("hysteresis"), "plant.kv_hp", ["1e-8", "2e-8"], tmp_path, overrides)
    assert list(tmp_path.iterdir()) == []


def test_sweep_runs_the_configs_it_checked(tmp_path, monkeypatch):
    import dighydro.experiments as exp

    values = ["1e-8", "2e-8", "3e-8"]
    overrides = {"run.duration_s": "0.05"}
    _, unedited = sweep(scenario_path("hysteresis"), "plant.kv_hp", values, tmp_path / "a", overrides)

    config = tmp_path / "hysteresis.cfg"
    config.write_text(scenario_path("hysteresis").read_text())
    loads = []

    def counted_load(*args):
        loads.append(args)
        return load_config(*args)

    def edit_then_run(cfg):
        # A file rewritten after the up-front check does not reach the runs.
        config.write_text("[run]\ndt_s = -1\n")
        return run_simulation(cfg)

    monkeypatch.setattr(exp, "load_config", counted_load)
    monkeypatch.setattr(exp, "run_simulation", edit_then_run)
    _, rows = sweep(config, "plant.kv_hp", values, tmp_path / "b", overrides)
    assert rows == unedited
    assert len(loads) == len(values) + 1


@pytest.mark.parametrize(
    "parameter, values",
    [
        # The plant does not move the reference: every run has the same one.
        ("plant.kv_lp", ["1.58e-8", "1.2e-8", "2e-8"]),
        # Each value has its own reference.
        ("reference.chirp_f1_hz", ["1.0", "2.0", "3.0"]),
    ],
)
def test_sweep_writes_what_its_configs_write_alone(tmp_path, parameter, values):
    config, overrides = scenario_path("chirp_miscalibrated"), {"run.duration_s": "3"}
    sweep(config, parameter, values, tmp_path / "sweep", overrides)
    for i, value in enumerate(values):
        label = {parameter: value, "run.label": f"chirp_miscalibrated_{i:03d}"}
        run_scenario(config, tmp_path / "alone", {**overrides, **label})

    names = sorted(path.name for path in (tmp_path / "sweep").iterdir() if not path.name.endswith("_sweep.csv"))
    assert names == sorted(path.name for path in (tmp_path / "alone").iterdir())
    assert len(names) == 3 * len(values)
    for name in names:
        assert (tmp_path / "sweep" / name).read_bytes() == (tmp_path / "alone" / name).read_bytes(), name


def test_sweep_refuses_an_empty_value_list(tmp_path):
    out = tmp_path / "out"
    with pytest.raises(ConfigError) as exc:
        sweep(scenario_path("hysteresis"), "plant.kv_hp", [], out)
    assert exc.value.errors == ["a sweep needs at least one value"]
    assert not out.exists()


class TestCli:
    def test_run_command(self, tmp_path, capsys):
        rc = main(
            [
                "run",
                str(scenario_path("step_unloaded_p1")),
                "--out-dir",
                str(tmp_path),
                "--seed",
                "3",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "step_unloaded_p1_trace.csv" in out
        assert (tmp_path / "step_unloaded_p1_metrics.json").exists()

    def test_validate_ok(self, capsys):
        assert main(["validate", str(scenario_path("chirp_matched"))]) == 0
        assert "config OK" in capsys.readouterr().out

    def test_validate_enumerates_errors(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[run]\nduration_s = -1\n[plant]\nkv_hp = -2\n")
        assert main(["validate", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "duration_s" in err and "kv_hp" in err

    def test_hysteresis_command(self, tmp_path, capsys):
        rc = main(["hysteresis", str(scenario_path("hysteresis")), "--out-dir", str(tmp_path)])
        assert rc == 0
        assert "loop_area" in capsys.readouterr().out
        assert (tmp_path / "hysteresis_loop.csv").exists()

    def test_hysteresis_takes_no_seed(self, tmp_path, capsys):
        # The loop depends only on the tip map and [hysteresis].
        with pytest.raises(SystemExit) as exc:
            main(["hysteresis", str(scenario_path("hysteresis")), "--out-dir", str(tmp_path), "--seed", "1"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    def test_malformed_file_is_a_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[plant]\nkv_hp = 1e-8\nkv_hp = 2e-8\n")
        assert main(["validate", str(bad)]) == 2
        assert "'kv_hp' in section 'plant' already exists" in capsys.readouterr().err

    def test_non_utf8_file_is_a_config_error(self, tmp_path, capsys):
        bad = tmp_path / "latin1.cfg"
        bad.write_bytes("[run]\nlabel = café\n".encode("latin-1"))
        assert main(["validate", str(bad)]) == 2
        assert f"{bad}: not UTF-8" in capsys.readouterr().err

    def test_sweep_command(self, tmp_path):
        rc = main(
            [
                "sweep",
                str(scenario_path("hysteresis")),
                "--param",
                "tip_map.play_width_pa",
                "--values",
                "0,10e3",
                "--out-dir",
                str(tmp_path),
                "--dt",
                "5e-4",
            ]
        )
        assert rc == 0
        assert (tmp_path / "hysteresis_sweep.csv").exists()

    @pytest.mark.parametrize(
        "values, message",
        [("1e-8,-1", "[plant] kv_hp must be > 0"), (" , ", "a sweep needs at least one value")],
    )
    def test_sweep_with_a_bad_value_writes_nothing(self, tmp_path, capsys, values, message):
        out = tmp_path / "out"
        rc = main(
            [
                "sweep",
                str(scenario_path("hysteresis")),
                "--param",
                "plant.kv_hp",
                "--values",
                values,
                "--out-dir",
                str(out),
            ]
        )
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not out.exists() or list(out.iterdir()) == []

    def test_sweep_over_run_label_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(
            [
                "sweep",
                str(scenario_path("hysteresis")),
                "--param",
                "run.label",
                "--values",
                "a,b",
                "--out-dir",
                str(out),
            ]
        )
        assert rc == 2
        assert "[run] label cannot be swept" in capsys.readouterr().err
        assert not out.exists() or list(out.iterdir()) == []

    def test_missing_file_fails_cleanly(self, tmp_path, capsys):
        rc = main(["run", str(tmp_path / "absent.cfg"), "--out-dir", str(tmp_path)])
        assert rc == 1
        assert "error" in capsys.readouterr().err
