import dataclasses
import math

import numpy as np
import pytest

from nearfield import ConfigurationError, desk_profile, estimator, run_trial
from nearfield.cli import main as cli_main
from nearfield.harness import (
    CSV_HEADER,
    METHODS,
    SweepResult,
    SweepRow,
    build_codebooks,
    emit_csv,
    load_csv,
    paper_profile,
    sweep_pilot,
    sweep_snr,
    trial_seeds,
)


def tiny_spec(**overrides):
    """Desk geometry shrunk to a handful of trials for fast harness tests."""
    base = desk_profile(
        trials=3,
        methods=("s-somp", "ls", "oracle"),
        snr_list_db=(0.0, 10.0),
        pilot_lengths=(8, 16),
        snr_db=5.0,
    )
    return dataclasses.replace(base, **overrides) if overrides else base


def test_run_spec_validation():
    with pytest.raises(ConfigurationError):
        tiny_spec(trials=0)
    with pytest.raises(ConfigurationError):
        tiny_spec(methods=())
    with pytest.raises(ConfigurationError):
        tiny_spec(methods=("somp-of-doom",))
    with pytest.raises(ConfigurationError):
        tiny_spec(snr_list_db=(10.0, 0.0))
    with pytest.raises(ConfigurationError):
        tiny_spec(workers=0)


def test_trial_seeds_channel_independent_of_sweep_value():
    a_channel, a_comb, a_noise = trial_seeds(7, "pilot", 8, 4)
    b_channel, b_comb, b_noise = trial_seeds(7, "pilot", 64, 4)
    assert a_channel.spawn_key == b_channel.spawn_key
    assert a_comb.spawn_key != b_comb.spawn_key
    assert a_noise.spawn_key != b_noise.spawn_key


def test_run_trial_deterministic():
    spec = tiny_spec()
    bank = build_codebooks(spec)
    first = run_trial(spec, 10.0, 0, bank)
    second = run_trial(spec, 10.0, 0, bank)
    assert first.keys() == second.keys()
    for method in first:
        assert first[method][0] == second[method][0]


def test_run_trial_method_isolation():
    all_methods = tiny_spec(methods=("s-somp", "ls", "oracle"))
    subset = tiny_spec(methods=("ls",))
    bank_all = build_codebooks(all_methods)
    bank_sub = build_codebooks(subset)
    full = run_trial(all_methods, 10.0, 1, bank_all)
    only_ls = run_trial(subset, 10.0, 1, bank_sub)
    assert full["ls"][0] == only_ls["ls"][0]


def test_run_trial_noiseless_square_ls_is_exact():
    spec = tiny_spec(methods=("ls",))
    spec = dataclasses.replace(
        spec, system=dataclasses.replace(spec.system, num_pilot_slots=32)
    )  # P * N_RF = N = 128
    record = run_trial(spec, math.inf, 0, build_codebooks(spec))
    assert record["ls"][0] < 1e-10


def test_run_trial_noiseless_oracle_is_exact():
    spec = tiny_spec(methods=("oracle", "s-somp"))
    record = run_trial(spec, math.inf, 0, build_codebooks(spec))
    assert record["oracle"][0] < 1e-10
    assert math.isfinite(record["s-somp"][0])


def test_sweep_snr_row_layout():
    spec = tiny_spec(trials=1, snr_list_db=(10.0,))
    result = sweep_snr(spec)
    assert result.kind == "snr"
    assert len(result.rows) == len(spec.methods)
    for row in result.rows:
        assert row.trials == 1
        assert row.sweep_value == 10.0
        assert row.method in METHODS


def test_sweep_snr_deterministic_up_to_wall_time():
    spec = tiny_spec()
    a = sweep_snr(spec)
    b = sweep_snr(spec)
    stripped_a = [(r.sweep_value, r.method, r.nmse_linear, r.nmse_db, r.trials) for r in a.rows]
    stripped_b = [(r.sweep_value, r.method, r.nmse_linear, r.nmse_db, r.trials) for r in b.rows]
    assert stripped_a == stripped_b


def test_sweep_trials_counts_finite_samples(monkeypatch):
    spec = tiny_spec()
    clean = sweep_snr(spec)
    real_ls = estimator.ls_estimate
    calls = []

    def ls_failing_once(measurements, combining):
        calls.append(None)
        if len(calls) == 1:  # trial 0 at the first SNR point
            raise RuntimeError("injected failure")
        return real_ls(measurements, combining)

    monkeypatch.setattr(estimator, "ls_estimate", ls_failing_once)
    with pytest.warns(UserWarning, match="method ls failed on trial 0"):
        faulty = sweep_snr(spec)

    def stripped(row):
        return (row.sweep_value, row.method, row.nmse_linear, row.nmse_db, row.trials)

    failed_point = spec.snr_list_db[0]
    assert len(faulty.rows) == len(clean.rows)
    for want, got in zip(clean.rows, faulty.rows):
        if (got.sweep_value, got.method) == (failed_point, "ls"):
            assert got.trials == spec.trials - 1
            bank = build_codebooks(spec)
            survivors = [
                run_trial(spec, failed_point, i, bank)["ls"][0] for i in range(1, spec.trials)
            ]
            assert got.nmse_linear == pytest.approx(np.mean(survivors), rel=1e-12)
        else:
            assert stripped(got) == stripped(want)


def test_sweep_concurrent_equals_sequential():
    sequential = sweep_snr(tiny_spec(workers=1))
    threaded = sweep_snr(tiny_spec(workers=4))
    for a, b in zip(sequential.rows, threaded.rows):
        assert (a.sweep_value, a.method, a.nmse_linear) == (b.sweep_value, b.method, b.nmse_linear)


def test_sweep_pilot_shares_channels_across_pilot_lengths():
    spec = tiny_spec(methods=("oracle",), pilot_lengths=(8, 16), trials=2)
    bank = build_codebooks(spec)
    # same trial index, different pilot length: the drawn paths must agree,
    # which shows as identical oracle NMSE at snr = +inf (exact both times).
    spec_inf = dataclasses.replace(spec, snr_db=math.inf)
    a = run_trial(spec_inf, 8, 0, bank, kind="pilot")
    b = run_trial(spec_inf, 16, 0, bank, kind="pilot")
    assert a["oracle"][0] < 1e-10
    assert b["oracle"][0] < 1e-10


def test_sweep_pilot_ls_determined_transition():
    spec = tiny_spec(methods=("ls",), pilot_lengths=(16, 32), trials=2, snr_db=math.inf)
    result = sweep_pilot(spec)
    by_pilot = {row.sweep_value: row.nmse_linear for row in result.rows}
    assert by_pilot[16] > 0.1  # underdetermined: P * N_RF = 64 < N
    assert by_pilot[32] < 1e-8  # determined: P * N_RF = 128 = N


def test_sweep_requires_matching_sweep_list():
    with pytest.raises(ConfigurationError):
        sweep_snr(tiny_spec(snr_list_db=None))
    with pytest.raises(ConfigurationError):
        sweep_pilot(tiny_spec(pilot_lengths=None))
    with pytest.raises(ConfigurationError):
        sweep_pilot(tiny_spec(snr_db=None))


def test_emit_csv_round_trip(tmp_path):
    rows = [
        SweepRow(0.0, "ls", 0.5, -3.0103, 3, 0.25),
        SweepRow(0.0, "s-somp", 0.25, -6.0206, 3, 1.5),
        SweepRow(10.0, "ls", 0.05, -13.0103, 3, 0.25),
        SweepRow(10.0, "s-somp", 0.025, -16.0206, 3, 1.5),
        SweepRow(20.0, "ls", 0.005, -23.0103, 3, 0.25),
        SweepRow(20.0, "s-somp", 0.0025, -26.0206, 3, 1.5),
    ]
    path = tmp_path / "sweep.csv"
    emit_csv(SweepResult("snr", rows), path)
    text = path.read_text().splitlines()
    assert text[0] == CSV_HEADER
    assert len(text) == 1 + 6
    assert load_csv(path) == rows


def test_emit_csv_empty_result(tmp_path):
    path = tmp_path / "empty.csv"
    emit_csv(SweepResult("snr", []), path)
    assert path.read_text() == CSV_HEADER + "\n"


def test_emit_csv_reports_os_errors(tmp_path):
    with pytest.raises(OSError, match="sweep CSV"):
        emit_csv(SweepResult("snr", []), tmp_path / "missing-dir" / "x.csv")


def test_paper_profile_parameters():
    spec = paper_profile()
    assert spec.system.num_antennas == 512
    assert spec.system.num_pilot_slots == 32
    assert spec.delta == 0.55
    assert spec.elevation_range == (0.0, 0.5 * math.pi)
    assert spec.azimuth_range == (-0.5 * math.pi, 0.5 * math.pi)
    assert spec.distance_range == (4.0, 25.0)


def test_cli_trial_and_config_precedence(tmp_path, capsys):
    config_path = tmp_path / "run.cfg"
    config_path.write_text(
        "num_antennas = 64\n"
        "num_pilot_slots = 8\n"
        "trials = 2  # overridden by flag below\n"
        "methods = ls\n"
    )
    code = cli_main(
        [
            "trial",
            "--config", str(config_path),
            "--trials", "1",
            "--methods", "ls,oracle",
            "--seed", "5",
            "--snr", "10",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "ls" in out and "oracle" in out


def test_cli_sweep_snr_writes_csv(tmp_path):
    out = tmp_path / "snr.csv"
    config_path = tmp_path / "small.cfg"
    config_path.write_text("num_antennas = 64\nnum_pilot_slots = 8\nnum_subcarriers = 4\n")
    code = cli_main(
        [
            "sweep", "snr",
            "--config", str(config_path),
            "--trials", "2",
            "--methods", "ls",
            "--snr-list", "0,10",
            "--out", str(out),
        ]
    )
    assert code == 0
    rows = load_csv(out)
    assert len(rows) == 2
    assert {row.sweep_value for row in rows} == {0.0, 10.0}


def test_cli_sweep_pilot_writes_csv(tmp_path):
    out = tmp_path / "pilot.csv"
    config_path = tmp_path / "small.cfg"
    config_path.write_text("num_antennas = 64\nnum_subcarriers = 4\n")
    code = cli_main(
        [
            "sweep", "pilot",
            "--config", str(config_path),
            "--trials", "1",
            "--methods", "ls",
            "--pilot-list", "4,8",
            "--snr", "5",
            "--out", str(out),
        ]
    )
    assert code == 0
    assert len(load_csv(out)) == 2


def test_cli_codebook_build_and_stats(tmp_path, capsys):
    grid_out = tmp_path / "grid.txt"
    matrix_out = tmp_path / "matrix.bin"
    config_path = tmp_path / "small.cfg"
    config_path.write_text("num_antennas = 64\nr_min_m = 0.25\n")
    code = cli_main(
        [
            "codebook", "build",
            "--config", str(config_path),
            "--out", str(grid_out),
            "--matrix-out", str(matrix_out),
        ]
    )
    assert code == 0
    assert grid_out.exists() and matrix_out.exists()

    code = cli_main(["codebook", "stats", "--config", str(config_path), "--budget", "200"])
    out = capsys.readouterr().out
    assert code == 0
    assert "columns G" in out
    assert "adjacent distance" in out


def test_cli_rejects_paper_profile_without_slow_flag(tmp_path):
    code = cli_main(["trial", "--profile", "paper", "--trials", "1"])
    assert code == 2


def test_cli_rejects_unknown_method():
    code = cli_main(["trial", "--methods", "nonsense"])
    assert code == 2


def test_cli_rejects_unknown_config_key(tmp_path):
    config_path = tmp_path / "bad.cfg"
    config_path.write_text("warp_drive = 9\n")
    code = cli_main(["trial", "--config", str(config_path)])
    assert code == 2


def test_cli_runtime_failure_exit_code(tmp_path):
    # unwritable output path -> runtime failure, not a config problem
    code = cli_main(
        [
            "sweep", "snr",
            "--trials", "1",
            "--methods", "ls",
            "--snr-list", "0",
            "--out", str(tmp_path / "no-such-dir" / "x.csv"),
        ]
    )
    assert code == 3
