import dataclasses
import math
import os
import subprocess
import sys
import textwrap
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nearfield
from nearfield import ConfigurationError, codebook, desk_profile, estimator, harness, phase_modes, run_trial
from nearfield.cli import main as cli_main
from nearfield.harness import (
    CSV_HEADER,
    METHOD_ANGULAR,
    METHOD_P_SOMP,
    METHOD_S_SOMP,
    METHODS,
    SweepResult,
    SweepRow,
    build_codebooks,
    check_rank_budget,
    emit_csv,
    load_csv,
    paper_profile,
    sweep_pilot,
    sweep_snr,
    _sweep_key,
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
    # Each CSV row names one method; a repeated one ran twice per trial.
    with pytest.raises(ConfigurationError, match=r"methods named more than once: \['s-somp'\]"):
        tiny_spec(methods=("s-somp", "ls", "s-somp"))
    with pytest.raises(ConfigurationError):
        tiny_spec(snr_list_db=(10.0, 0.0))
    # A repeated point wrote identical rows, and -0 drew 0's seeds.
    for snrs in ((0.0, 0.0), (0.0, -0.0), (-0.0, 0.0, 5.0), (0.0, 5.0, 5.0), (math.inf, math.inf)):
        with pytest.raises(ConfigurationError, match=r"snr_list_db must be strictly ascending, got \["):
            tiny_spec(snr_list_db=snrs)
    for lengths in ((8, 8), (8, 16, 16)):
        with pytest.raises(ConfigurationError, match=r"pilot_lengths must be strictly ascending, got \["):
            tiny_spec(pilot_lengths=lengths)
    # Distinct points that print as one 12-digit CSV value wrote two rows
    # `load_csv` could not tell apart.
    for snrs in ((1.0, 1.0000000000001), (1, 1.0000000000001, 5.0), (0.0, 5.0, 5.0000000000001)):
        with pytest.raises(ConfigurationError, match=r"snr_list_db points print as one CSV value: \['(1|5)'\]"):
            tiny_spec(snr_list_db=snrs)
    assert tiny_spec(snr_list_db=(1.0, 1.00000000001)).snr_list_db == (1.0, 1.00000000001)
    # A pilot sweep runs int(value) slots, so only integers >= 1 may label rows.
    for lengths in ((8.5, 16), (16.0,), (0, 8), (-8,), ("8",), (True, 8)):
        with pytest.raises(ConfigurationError, match="pilot_lengths must be integers >= 1"):
            tiny_spec(pilot_lengths=lengths)
    assert tiny_spec(pilot_lengths=(np.int64(8), 16)).pilot_lengths == (8, 16)
    for workers in (-1, 0, 2, 4):
        with pytest.raises(ConfigurationError, match="workers must be 1"):
            tiny_spec(workers=workers)
    # Each of these failed or mislabelled every trial.
    with pytest.raises(ConfigurationError, match="num_paths must be >= 1, got 0"):
        tiny_spec(num_paths=0)
    # More paths than antennas failed every trial's channel synthesis.
    for paths in (129, 200):
        with pytest.raises(ConfigurationError, match=f"num_paths={paths} exceeds num_antennas=128"):
            tiny_spec(num_paths=paths, num_iterations=3)
    assert tiny_spec(num_paths=128, num_iterations=3).num_paths == 128
    # SeedSequence rejects a negative entropy only once the first trial is seeded.
    for seed in (-1, -(2**63)):
        with pytest.raises(ConfigurationError, match=f"master_seed must be >= 0, got {seed}"):
            tiny_spec(master_seed=seed)
    assert tiny_spec(master_seed=0).master_seed == 0
    for iterations in (0, -1):
        with pytest.raises(ConfigurationError, match=f"num_iterations must be >= 1, got {iterations}"):
            tiny_spec(num_iterations=iterations)
    # +inf is the noiseless sentinel; NaN and -inf are not SNRs.
    for snr in (math.nan, -math.inf):
        with pytest.raises(ConfigurationError, match=r"snr_db must be finite or \+inf"):
            tiny_spec(snr_db=snr)
    for snrs in ((0.0, math.nan, 10.0), (-math.inf, math.inf), (math.nan,)):
        with pytest.raises(ConfigurationError, match=r"snr_list_db must be finite or \+inf"):
            tiny_spec(snr_list_db=snrs)
    assert tiny_spec(snr_db=math.inf, snr_list_db=(0.0, math.inf)).snr_list_db == (0.0, math.inf)
    assert tiny_spec(num_iterations=1, num_paths=1).effective_iterations == 1
    # Beyond +-1000 dB, 10^(snr/10) heads for overflow or underflow.
    for snr in (1000.5, -1001.0, 4000.0):
        with pytest.raises(ConfigurationError, match=rf"snr_db must lie within \+-1000 dB or be \+inf, got \[{snr}\]"):
            tiny_spec(snr_db=snr)
    with pytest.raises(ConfigurationError, match=r"snr_list_db must lie within \+-1000 dB or be \+inf, got \[-4000.0, 4000.0\]"):
        tiny_spec(snr_list_db=(-4000.0, 0.0, 4000.0, math.inf))
    assert tiny_spec(snr_db=-1000.0, snr_list_db=(-1000.0, 1000.0, math.inf)).snr_list_db == (-1000.0, 1000.0, math.inf)
    # A fractional or boolean count ran a sweep of NaN rows, or raised
    # TypeError once the codebook bank was built.
    for name, value in (("num_paths", 2.5), ("num_paths", True), ("num_iterations", 2.5), ("num_iterations", False), ("trials", 2.5), ("trials", 3.0), ("master_seed", 1.5), ("master_seed", False)):
        with pytest.raises(ConfigurationError, match=f"{name} must be an integer, got {value!r}"):
            tiny_spec(**{name: value})
    counts = tiny_spec(trials=np.int64(2), num_paths=np.int32(2), num_iterations=np.int64(2), master_seed=np.uint32(1))
    assert (counts.trials, counts.num_paths, counts.effective_iterations, counts.master_seed) == (2, 2, 2, 1)
    # A NaN or inf r_min left both SOMP books with the plane-wave ring alone.
    for r_min in (math.nan, math.inf, 0.0, -1.0):
        with pytest.raises(ConfigurationError, match=f"r_min_m must be finite and positive, got {r_min}"):
            tiny_spec(r_min_m=r_min)
    # A NaN bandwidth wrote rows of 0 trials, and an inf carrier exited 3.
    for name in ("carrier_freq_hz", "bandwidth_hz", "antenna_spacing_m"):
        for value in (math.nan, math.inf):
            with pytest.raises(ConfigurationError, match=f"{name} must be finite and strictly positive, got {value}"):
                tiny_spec(system=dataclasses.replace(tiny_spec().system, **{name: value}))
    # An infinite bound wrote NaN rows.
    for name, bounds in (("distance_range", (4.0, math.inf)), ("azimuth_range", (0.0, math.inf)), ("azimuth_range", (-math.inf, 0.0)), ("elevation_range", (math.nan, 1.0))):
        with pytest.raises(ConfigurationError, match=rf"{name} must be finite with low < high, got \({bounds[0]}, {bounds[1]}\)"):
            tiny_spec(**{name: bounds})


def test_run_spec_rejects_ranges_that_fail_every_trial(tmp_path):
    """Set-up failures are contained per trial, so ranges that make every
    trial fail are rejected up front, and the CLI exits with code 2."""
    with pytest.raises(ConfigurationError, match="beyond"):
        tiny_spec(distance_range=(0.01, 0.05))  # inside the 0.1 m array
    with pytest.raises(ConfigurationError):
        tiny_spec(elevation_range=(0.1, 2.0))
    with pytest.raises(ConfigurationError):
        tiny_spec(azimuth_range=(1.0, 1.0))
    config = tmp_path / "inside.cfg"
    config.write_text("distance_range = 0.01,0.05\n")
    assert cli_main(["trial", "--config", str(config)]) == 2


def test_trial_seeds_channel_independent_of_sweep_value():
    a_channel, a_comb, a_noise = trial_seeds(7, "pilot", 8, 4)
    b_channel, b_comb, b_noise = trial_seeds(7, "pilot", 64, 4)
    assert a_channel.spawn_key == b_channel.spawn_key
    assert a_comb.spawn_key != b_comb.spawn_key
    assert a_noise.spawn_key != b_noise.spawn_key


def test_sweep_key_separates_nearby_off_lattice_snrs():
    assert _sweep_key("snr", 5.0) != _sweep_key("snr", 5.0004)
    _, comb_a, noise_a = trial_seeds(7, "snr", 5.0, 2)
    _, comb_b, noise_b = trial_seeds(7, "snr", 5.0004, 2)
    assert comb_a.spawn_key != comb_b.spawn_key
    assert noise_a.spawn_key != noise_b.spawn_key


def test_sweep_key_pins_lattice_snrs():
    # SNRs on the 0.001 dB lattice keep their historical streams.
    pinned = {0.0: 2147483648, 5.0: 2147488648, 10.0: 2147493648, 15.0: 2147498648,
              20.0: 2147503648, math.inf: 1 << 62}
    assert {v: _sweep_key("snr", v) for v in pinned} == pinned
    assert _sweep_key("snr", 5) == _sweep_key("snr", 5.0)
    assert _sweep_key("snr", 5.0004) >= 1 << 64


def test_run_trial_deterministic():
    spec = tiny_spec()
    bank = build_codebooks(spec)
    first = run_trial(spec, 10.0, 0, bank)
    second = run_trial(spec, 10.0, 0, bank)
    assert first.keys() == second.keys()
    for method in first:
        assert first[method][0] == second[method][0]


def test_method_table_calls_module_attributes(monkeypatch):
    """`build_codebooks` and `run_trial` reach every builder and estimator
    through its module attribute at call time, so a wrapper patched over one
    (as a tracer does) sees every call."""
    calls = []

    def record(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for name in ("build_spherical_codebook", "build_polar_codebook", "build_angular_codebook"):
        record(harness, name)
    for name in ("s_somp", "ls_estimate", "oracle_estimate"):
        record(estimator, name)
    spec = tiny_spec(methods=METHODS)
    bank = build_codebooks(spec)
    assert calls == ["build_spherical_codebook", "build_polar_codebook", "build_angular_codebook"]
    records = run_trial(spec, 10.0, 0, bank)
    assert calls[3:] == ["s_somp", "s_somp", "s_somp", "ls_estimate", "oracle_estimate"]
    assert all(math.isfinite(value) for value, _ in records.values())


def test_every_solve_of_a_trial_goes_through_the_estimator_lstsq(monkeypatch):
    """S-SOMP's per-iteration projections, LS and the oracle all solve
    through `estimator.lstsq_minimum_norm` at call time, so one wrapper
    patched over it (as the benchmark's numerics layer is) counts every
    least-squares solve of a trial: 3 SOMP methods x 3 iterations, LS and
    the oracle."""
    calls = []
    real = estimator.lstsq_minimum_norm
    monkeypatch.setattr(estimator, "lstsq_minimum_norm", lambda a, y: calls.append(a.shape) or real(a, y))
    spec = tiny_spec(methods=METHODS, num_iterations=3)
    run_trial(spec, 10.0, 0, build_codebooks(spec))
    assert len(calls) == 3 * 3 + 1 + 1


@pytest.fixture(scope="module")
def desk_bank(desk_spec):
    return build_codebooks(desk_spec)


SWEEP_POINTS = (("snr", 0.0), ("snr", 12.5), ("snr", math.inf), ("pilot", 16))


def _nmse_values(records):
    return np.array([value for value, _ in records.values()])


@settings(max_examples=20, deadline=None)
@given(
    point=st.sampled_from(SWEEP_POINTS),
    trial=st.integers(0, 9),
    trials=st.integers(1, 12),
    before=st.lists(st.tuples(st.sampled_from(SWEEP_POINTS), st.integers(0, 9)), max_size=3),
)
def test_run_trial_is_independent_of_order_and_batch(desk_spec, desk_bank, point, trial, trials, before):
    """Trial i's NMSEs are bit-identical whatever spec.trials is and
    whichever trials, at whichever sweep points, ran before it."""
    kind, value = point
    alone = run_trial(desk_spec, value, trial, desk_bank, kind)
    spec = dataclasses.replace(desk_spec, trials=max(trials, trial + 1))
    for (other_kind, other_value), other in before:
        run_trial(spec, other_value, other, desk_bank, other_kind)
    again = run_trial(spec, value, trial, desk_bank, kind)
    assert list(again) == list(alone)
    assert np.array_equal(_nmse_values(again), _nmse_values(alone), equal_nan=True)


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


def test_sweep_contains_a_set_up_failure_to_its_trial(monkeypatch):
    """A trial whose channel synthesis raises records NaN for every method,
    with one failure warning each, and the sweep goes on."""
    spec = tiny_spec()
    clean = sweep_snr(spec)
    real = harness.generate_channel
    calls = []

    def failing_once(paths, system):
        calls.append(None)
        if len(calls) == 2:  # trial 1 at the first SNR point
            raise RuntimeError("injected channel failure")
        return real(paths, system)

    monkeypatch.setattr(harness, "generate_channel", failing_once)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        faulty = sweep_snr(spec)
    messages = [str(w.message) for w in caught]
    failed_point = spec.snr_list_db[0]
    assert sorted(messages) == sorted(
        f"method {method} failed on trial 1 at snr={failed_point}: injected channel failure"
        for method in spec.methods
    )
    assert len(faulty.rows) == len(clean.rows)
    for want, got in zip(clean.rows, faulty.rows):
        assert (got.sweep_value, got.method) == (want.sweep_value, want.method)
        if got.sweep_value == failed_point:
            assert got.trials == spec.trials - 1
            assert math.isfinite(got.nmse_linear)
        else:
            assert (got.nmse_linear, got.trials) == (want.nmse_linear, want.trials)


def test_sweep_concurrent_equals_sequential():
    """The library starts no threads of its own, but a caller may run
    sweeps, and trials on one shared bank, from several threads at once:
    each gives what it gives when run alone."""
    spec = tiny_spec(workers=1)
    sequential = sweep_snr(spec)
    bank = build_codebooks(spec)
    alone = [run_trial(spec, 10.0, i, bank) for i in range(spec.trials)]

    shared = build_codebooks(spec)  # lazily built matrices, first touched concurrently
    results = {}
    barrier = threading.Barrier(4)

    def sweep(slot):
        barrier.wait()
        results[slot] = sweep_snr(spec)

    def trial(slot):
        barrier.wait()
        results[slot] = [run_trial(spec, 10.0, i, shared) for i in range(spec.trials)]

    threads = [threading.Thread(target=fn, args=(slot,)) for slot, fn in enumerate((sweep, sweep, trial, trial))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=300)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(results) == [0, 1, 2, 3]
    for threaded in (results[0], results[1]):
        assert len(threaded.rows) == len(sequential.rows)
        for a, b in zip(sequential.rows, threaded.rows):
            assert (a.sweep_value, a.method, a.nmse_linear) == (b.sweep_value, b.method, b.nmse_linear)
    for records in (results[2], results[3]):
        for want, got in zip(alone, records):
            assert list(got) == list(want)
            assert np.array_equal(_nmse_values(got), _nmse_values(want), equal_nan=True)


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


@pytest.mark.parametrize("pilot_slots", [8, 64])
def test_received_snr_is_nominal_plus_the_combining_offset(desk_spec, monkeypatch, pilot_slots):
    """The noise variance ||H||_F^2 / (P N_RF M 10^(snr/10)) makes the
    nominal SNR ||H||_F^2 / ||N||_F^2 in expectation. A combiner row has
    unit norm and uniform random phases, so E ||A H||_F^2 = (P N_RF / N)
    ||H||_F^2, and the SNR the receiver sees, ||A H||_F^2 / ||N||_F^2, is
    nominal + 10 log10(P N_RF / N). Over the 20 desk pilot-sweep trials
    the harness draws at 5 dB, the mean of that ratio lies within 0.2 dB
    of it at P = 8 (offset -6.0 dB) and P = 64 (+3.0 dB). Measured: 0.14
    dB below and 0.03 dB above (the mean of the per-trial dB values, which
    Jensen's inequality biases low, reads 0.20 dB below at P = 8)."""
    spec = dataclasses.replace(desk_spec, methods=("ls",))
    received = []
    real = estimator.synthesize_measurements

    def recording(channel, combining, snr_db, seed):
        measurements = real(channel, combining, snr_db, seed)
        clean = combining.entries @ channel
        received.append(np.linalg.norm(clean) ** 2 / np.linalg.norm(measurements.observations - clean) ** 2)
        return measurements

    monkeypatch.setattr(estimator, "synthesize_measurements", recording)
    for trial in range(20):
        run_trial(spec, pilot_slots, trial, kind="pilot")
    system = desk_spec.system
    offset = 10.0 * math.log10(pilot_slots * system.num_rf_chains / system.num_antennas)
    assert len(received) == 20
    assert abs(10.0 * math.log10(np.mean(received)) - (spec.snr_db + offset)) <= 0.2


def test_sweep_requires_matching_sweep_list():
    with pytest.raises(ConfigurationError):
        sweep_snr(tiny_spec(snr_list_db=None))
    with pytest.raises(ConfigurationError):
        sweep_pilot(tiny_spec(pilot_lengths=None))
    with pytest.raises(ConfigurationError):
        sweep_pilot(tiny_spec(snr_db=None))


def test_emit_csv_round_trip(tmp_path):
    rows = [
        SweepRow(0.0, "ls", 0.5, -3.01029995664, 3, 0.25),
        SweepRow(0.0, "s-somp", 0.25, -6.02059991328, 3, 1.5),
        SweepRow(10.0, "ls", 0.05, -13.0102999566, 3, 0.25),
        SweepRow(10.0, "s-somp", 0.025, -16.0205999133, 3, 1.5),
        SweepRow(20.0, "ls", 0.005, -23.0102999566, 3, 0.25),
        SweepRow(20.0, "s-somp", 0.0025, -26.0205999133, 3, 1.5),
    ]
    path = tmp_path / "sweep.csv"
    emit_csv(SweepResult("snr", rows), path)
    text = path.read_text().splitlines()
    assert text[0] == CSV_HEADER
    assert len(text) == 1 + 6
    assert load_csv(path) == rows


_CSV_FLOATS = st.floats(allow_subnormal=False)


@st.composite
def _sweep_rows(draw):
    """A row as `_run_sweep` writes one: nmse_db from nmse_linear, and zero
    trials exactly when the NMSE is NaN. A sweep writes one row per method
    and printed sweep value, so lists of them are unique in both."""
    linear = draw(st.one_of(st.just(math.nan), st.floats(min_value=0.0, allow_subnormal=False)))
    return SweepRow(
        sweep_value=draw(st.one_of(st.integers(1, 10**6), _CSV_FLOATS)),
        method=draw(st.sampled_from(METHODS)),
        nmse_linear=linear,
        nmse_db=estimator.nmse_db(linear),
        trials=0 if math.isnan(linear) else draw(st.integers(1, 10**6)),
        wall_time_s=draw(st.floats(min_value=0.0, allow_infinity=False, allow_subnormal=False)),
    )


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(_sweep_rows(), max_size=8, unique_by=lambda row: (float(f"{row.sweep_value:.12g}"), row.method)))
@example(
    rows=[
        SweepRow(8, "ls", math.nan, math.nan, 0, 0.25),
        SweepRow(-3.5, "oracle", math.inf, math.inf, 2, 1.0 / 3.0),
        SweepRow(math.inf, "s-somp", 0.0, -math.inf, 1, 0.0),
    ]
)
def test_emit_csv_round_trip_property(tmp_path_factory, rows):
    """Every value comes back to 12 significant digits; +-inf and nan come
    back as themselves, integer pilot values exactly, and rows with zero
    finite trials (NaN NMSE) keep their zero."""
    path = tmp_path_factory.mktemp("csv") / "sweep.csv"
    emit_csv(SweepResult("snr", rows), path)
    loaded = load_csv(path)
    assert len(loaded) == len(rows)

    def same(got, want):
        if isinstance(want, int):
            return got == want
        if math.isnan(want) or math.isinf(want):
            return math.isnan(got) if math.isnan(want) else got == want
        return got == float(f"{want:.12g}") and abs(got - want) <= 1e-11 * abs(want)

    for got, want in zip(loaded, rows):
        assert got.method == want.method
        assert got.trials == want.trials
        for name in ("sweep_value", "nmse_linear", "nmse_db", "wall_time_s"):
            assert same(getattr(got, name), getattr(want, name)), name


def test_emit_csv_empty_result(tmp_path):
    path = tmp_path / "empty.csv"
    emit_csv(SweepResult("snr", []), path)
    assert path.read_text() == CSV_HEADER + "\n"


def test_emit_csv_reports_os_errors(tmp_path):
    with pytest.raises(OSError, match="sweep CSV"):
        emit_csv(SweepResult("snr", []), tmp_path / "missing-dir" / "x.csv")


@pytest.mark.parametrize(
    "line, reason",
    [
        ("10,ls,0.05,-13.0103,3", "expected 6 comma-separated fields, got 5"),
        ("10,ls,0.05,-13.0103,3,0.25,7", "expected 6 comma-separated fields, got 7"),
        ("10,ls,0.05,-13.0103,3.5,0.25", "invalid literal for int"),
        ("10,ls,low,-13.0103,3,0.25", "could not convert string to float"),
        ("", "expected 6 comma-separated fields, got 1"),
        ("10,bogus,-0.5,7,-3,0.1", "unknown method 'bogus'"),
        ("10,ls,-0.5,nan,3,0.25", "NMSE cannot be negative"),
        ("10,ls,0.05,-13.0103,3,0.25", "nmse_db -13.0103 disagrees with nmse_linear 0.05"),
        ("10,ls,0.05,nan,3,0.25", "nmse_db nan disagrees with nmse_linear 0.05"),
        ("10,ls,nan,-13.0102999566,0,0.25", "nmse_db -13.0102999566 disagrees with nmse_linear nan"),
        ("10,ls,0,-300,3,0.25", "nmse_db -300.0 disagrees with nmse_linear 0.0"),
        ("10,ls,1e-300,-inf,3,0.25", "nmse_db -inf disagrees with nmse_linear 1e-300"),
        ("10,ls,0.05,-13.0102999566,-3,0.25", "-3 trials with nmse_linear 0.05"),
        ("10,ls,nan,nan,-1,0.25", "-1 trials with nmse_linear nan"),
        ("10,ls,0.05,-13.0102999566,0,0.25", "0 trials with nmse_linear 0.05"),
        ("10,ls,0.05,-13.0102999566,3,-0.25", "wall_time_s must be finite and >= 0, got -0.25"),
        ("10,ls,0.05,-13.0102999566,3,inf", "wall_time_s must be finite and >= 0, got inf"),
        ("10,ls,0.05,-13.0102999566,3,nan", "wall_time_s must be finite and >= 0, got nan"),
        ("10,s-somp,0.025,-16.0205999133,3,1.5", "a second row for sweep value 10.0 and method s-somp"),
        ("1e1,s-somp,0.5,-3.01029995664,3,1.5", "a second row for sweep value 10.0 and method s-somp"),
    ],
    ids=[
        "short", "long", "fractional-count", "non-numeric", "blank", "unknown-method", "negative-nmse",
        "db-disagrees", "db-nan", "linear-nan", "zero-not-minus-inf", "minus-inf-not-zero",
        "negative-trials", "negative-trials-nan", "zero-trials-finite", "negative-time", "inf-time", "nan-time",
        "repeated-row", "repeated-value-printed-otherwise",
    ],
)
def test_load_csv_names_the_malformed_line(tmp_path, line, reason):
    path = tmp_path / "sweep.csv"
    path.write_text(f"{CSV_HEADER}\n10,s-somp,0.025,-16.0205999133,3,1.5\n{line}\n")
    with pytest.raises(ValueError, match=f"sweep.csv:3: {reason}"):
        load_csv(path)


@pytest.mark.slow
def test_paper_scale_smoke(traced_peak):
    """Three N = 512 trials at 10 dB: S-SOMP beats the polar and angular
    baselines on average, and one trial, codebook builds included, traces
    under 300 MB (the dense spherical matrix alone is 822 MB)."""
    spec = paper_profile(trials=3, snr_list_db=(10.0,))
    assert traced_peak(run_trial, spec, 10.0, 0)[1] < 300e6
    rows = {row.method: row for row in sweep_snr(spec).rows}
    assert all(row.trials == 3 for row in rows.values())
    s_somp = rows[METHOD_S_SOMP].nmse_linear
    assert s_somp < rows[METHOD_P_SOMP].nmse_linear
    assert s_somp < rows[METHOD_ANGULAR].nmse_linear


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
        "trials = 2  # accepted, though one trial reads no trial count\n"
        "methods = ls\n"
    )
    code = cli_main(
        [
            "trial",
            "--config", str(config_path),
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
    from nearfield.cli import assemble_spec, build_parser

    grid_out = tmp_path / "grid.txt"
    config_path = tmp_path / "small.cfg"
    config_path.write_text("num_antennas = 64\nr_min_m = 0.25\n")
    argv = ["codebook", "build", "--config", str(config_path), "--out", str(grid_out)]
    assert cli_main(argv) == 0
    # The grid text loads as the layout of the book the same config builds.
    spec = assemble_spec(build_parser().parse_args(argv))
    book = codebook.build_spherical_codebook(spec.system, spec.delta, spec.r_min_m)
    assert codebook.load_grid_text(grid_out) == book.layout

    code = cli_main(["codebook", "stats", "--config", str(config_path), "--budget", "200"])
    out = capsys.readouterr().out
    assert code == 0
    assert "columns G" in out
    assert "adjacent distance" in out
    # Build and stats both report the dense 64 x G complex128 matrix they
    # hold (16 B/entry).
    g = len(grid_out.read_text().splitlines())
    size_line = f"codebook 64 x {g} holds the dense matrix: {64 * g * 16} bytes (dense: {64 * g * 16} bytes), built in "
    assert out.count(size_line) == 2


def test_cli_codebook_build_and_stats_of_the_desk_screen(tmp_path, capsys):
    """The desk profile's spherical book (N = 128, G = 3 789) holds a
    complex64 screen: build and stats both say so, with its bytes (8 per
    entry) beside the dense matrix's (16). The grid text the build writes
    rebuilds the exact float64 matrix, every column bit for bit."""
    grid_out = tmp_path / "grid.txt"
    args = ["codebook", "build", "--profile", "desk", "--out", str(grid_out)]
    assert cli_main(args) == 0
    assert cli_main(["codebook", "stats", "--profile", "desk", "--budget", "200"]) == 0
    out = capsys.readouterr().out
    n, g = 128, 3789
    assert len(grid_out.read_text().splitlines()) == g
    size_line = (
        f"codebook {n} x {g} holds a complex64 screen of the matrix, exact columns on request: "
        f"{8 * n * g} bytes (dense: {16 * n * g} bytes), built in "
    )
    assert out.count(size_line) == 2
    assert "adjacent distance" in out
    spec = desk_profile()
    book = codebook.build_spherical_codebook(spec.system, spec.delta, spec.r_min_m)
    rebuilt = phase_modes.ring_matrix(codebook.load_grid_text(grid_out), book.system)
    assert rebuilt.shape == (n, g)
    assert np.array_equal(rebuilt, book.dense())


def test_cli_codebook_stats_states_its_pair_counts_before_the_walk(capsys, monkeypatch):
    """`codebook stats` prints how many adjacent pairs it will correlate
    before it walks them, so a walk too long to finish (N = 4096) shows its
    size first. The counts are those the walk reports.

    The rows themselves are pinned. Elevation pairs (t - 1, s, z) with
    (t, s, z): at s > 0 two different azimuths, whose maximum 0.4028 is
    |J0|'s first minimum. Distance exceeds delta = 0.55 by the error of the
    Fresnel approximation the ring spacing comes from."""
    argv = ["codebook", "stats", "--profile", "desk", "--budget", "200"]
    assert cli_main(argv) == 0
    out = capsys.readouterr().out
    line = "adjacent pairs to correlate: elevation 3297, azimuth 3751, distance 1571\n"
    assert out.index(line) < out.index("column correlations:")
    rows = (
        ("adjacent elevation", 3297, "max=0.4028 mean=0.1851 median=0.1898 q90=0.3402"),
        ("adjacent azimuth", 3751, "max=0.0130 mean=0.0016 median=0.0000 q90=0.0049"),
        ("adjacent distance", 1571, "max=0.5503 mean=0.5465 median=0.5477 q90=0.5503"),
    )
    for label, count, values in rows:
        assert f"  {label:<18} n={count:<7d} {values}\n" in out

    def stopped(*args):
        raise RuntimeError("walk stopped")

    monkeypatch.setattr(codebook, "coherence_stats", stopped)
    assert cli_main(argv) == 3
    assert line in capsys.readouterr().out


def test_cli_codebook_build_of_phase_modes_builds_no_matrix(tmp_path, capsys, monkeypatch, record_fills):
    monkeypatch.setattr(codebook, "_PHASE_MODE_MIN_ANTENNAS", 1)
    fills = record_fills()
    grid_out = tmp_path / "grid.txt"
    config_path = tmp_path / "small.cfg"
    config_path.write_text("num_antennas = 64\nr_min_m = 0.25\n")
    args = ["codebook", "build", "--config", str(config_path), "--out", str(grid_out)]
    assert cli_main(args) == 0
    assert fills == []
    out = capsys.readouterr().out
    g = len(grid_out.read_text().splitlines())
    book = codebook.build_spherical_codebook(
        dataclasses.replace(desk_profile().system, num_antennas=64), 0.55, 0.25
    )
    modes = book
    assert modes.streamed and 0 < modes.nbytes < 64 * g * 16
    assert (
        f"codebook 64 x {g} holds phase modes of {modes.num_rings} rings, "
        f"{modes.num_modes} modes: {modes.nbytes} bytes (dense: {64 * g * 16} bytes), built in "
    ) in out
    assert codebook.load_grid_text(grid_out) == book.layout


def test_cli_paper_profile_needs_no_slow_flag(capsys):
    """The paper profile assembles like any other, and `--slow` is gone."""
    from nearfield.cli import assemble_spec, build_parser

    args = build_parser().parse_args(["sweep", "snr", "--profile", "paper", "--trials", "1", "--out", "snr.csv"])
    assert assemble_spec(args) == paper_profile(trials=1)
    with pytest.raises(SystemExit) as exit_info:
        cli_main(["trial", "--profile", "paper", "--slow"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --slow" in capsys.readouterr().err


def test_cli_rejects_unknown_method():
    code = cli_main(["trial", "--methods", "nonsense"])
    assert code == 2


@pytest.mark.parametrize(
    "args, message",
    [
        (["trial", "--trial-index", "-1"], "--trial-index must be >= 0, got -1"),
        (["codebook", "stats", "--budget", "0"], "--budget must be >= 1, got 0"),
        (["sweep", "snr", "--methods", "s-somp,s-somp", "--out", "{tmp}/snr.csv"], "methods named more than once: ['s-somp']"),
    ],
)
def test_cli_rejects_a_bad_flag_before_building_a_codebook(tmp_path, capsys, args, message):
    """Exit 2 with a message naming the flag, and no codebook built (no
    "built in" line) or file written."""
    assert cli_main([arg.format(tmp=tmp_path) for arg in args]) == 2
    captured = capsys.readouterr()
    assert f"configuration error: {message}" in captured.err
    assert "built in" not in captured.out
    assert list(tmp_path.iterdir()) == []


def test_cli_rejects_unknown_config_key(tmp_path, capsys):
    config_path = tmp_path / "bad.cfg"
    for key in ("warp_drive", "workers"):
        config_path.write_text(f"{key} = 2\n")
        assert cli_main(["trial", "--config", str(config_path)]) == 2
        assert f"unknown config key {key!r}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, line, message",
    [
        (["codebook", "build", "--out", "{tmp}/grid.txt"], "methods = foo", "unknown methods ['foo']"),
        (["codebook", "stats"], "trials = 0", "trials must be >= 1"),
    ],
)
def test_cli_codebook_commands_validate_the_whole_config_file(tmp_path, capsys, command, line, message):
    """One config file serves every subcommand, so it is validated whole
    under each: a bad sweep-only key stops a codebook command too, with
    exit 2 and the key named, before any codebook is built or grid written."""
    config_path = tmp_path / "sweep.cfg"
    config_path.write_text(line + "\n")
    args = [arg.format(tmp=tmp_path) for arg in command] + ["--config", str(config_path)]
    assert cli_main(args) == 2
    captured = capsys.readouterr()
    assert f"configuration error: {message}" in captured.err
    assert "built in" not in captured.out
    assert list(tmp_path.iterdir()) == [config_path]


def test_cli_rejects_a_config_key_set_twice(tmp_path, capsys, monkeypatch):
    """`trials = 10` and later `trials = 1000` used to run 1000 trials
    without a word. A key set twice exits 2, naming the key and both lines,
    before any codebook is built, and no CSV is written."""
    builds = []
    monkeypatch.setattr(harness, "build_codebooks", lambda spec: builds.append(spec))
    config_path = tmp_path / "twice.cfg"
    config_path.write_text("trials = 10\n# the run's size\nmethods = ls\ntrials = 1000\n")
    out = tmp_path / "out.csv"
    assert cli_main(["sweep", "snr", "--config", str(config_path), "--out", str(out)]) == 2
    assert f"configuration error: {config_path}:4: trials is set again, first on line 1" in capsys.readouterr().err
    assert builds == []
    assert not out.exists()


@pytest.mark.parametrize(
    "line, message",
    [
        ("trials = 2.5", "trials needs an integer, got '2.5'"),
        ("num_antennas = 64.5", "num_antennas needs an integer, got '64.5'"),
        ("master_seed = inf", "master_seed needs a number, got 'inf'"),
        ("delta = x", "delta needs a number, got 'x'"),
        ("num_iterations = auto", "num_iterations needs a number, got 'auto'"),
        ("pilot_lengths = 8.5, 16", "pilot_lengths needs an integer, got '8.5'"),
        ("snr_list_db = 0, x", "snr_list_db needs a number, got 'x'"),
        ("distance_range = a, 5", "distance_range needs a number, got 'a'"),
        ("snr_db = nan", "snr_db must be finite or +inf, got [nan]"),
        ("snr_db = -inf", "snr_db must be finite or +inf, got [-inf]"),
        ("snr_list_db = 0, nan, 10", "snr_list_db must be finite or +inf, got [nan]"),
        ("num_paths = 0", "num_paths must be >= 1, got 0"),
        ("num_iterations = 0", "num_iterations must be >= 1, got 0"),
        ("master_seed = -1", "master_seed must be >= 0, got -1"),
    ],
)
def test_cli_rejects_non_numeric_and_non_integral_config_values(tmp_path, capsys, line, message):
    """A bad value, list and range items included, is a configuration error
    (exit 2) naming its key, never truncated to an integer or reported as a
    runtime failure (exit 3)."""
    config_path = tmp_path / "bad.cfg"
    config_path.write_text(line + "\n")
    assert cli_main(["trial", "--config", str(config_path)]) == 2
    assert f"configuration error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, message",
    [
        (["sweep", "pilot", "--pilot-list", "8.5,16"], "pilot_lengths needs an integer, got '8.5'"),
        (["sweep", "pilot", "--pilot-list", "0,16"], "pilot_lengths must be integers >= 1, got [0]"),
        (["sweep", "snr", "--snr-list", "0,x"], "snr_list_db needs a number, got 'x'"),
        (["sweep", "snr", "--snr-list=-inf,inf"], "snr_list_db must be finite or +inf, got [-inf]"),
        (["sweep", "snr", "--snr-list", "0,nan,10"], "snr_list_db must be finite or +inf, got [nan]"),
        (["sweep", "pilot", "--snr", "nan"], "snr_db must be finite or +inf, got [nan]"),
        (["sweep", "snr", "--snr-list=-4000,4000"], "snr_list_db must lie within +-1000 dB or be +inf, got [-4000.0, 4000.0]"),
        (["sweep", "snr", "--snr-list=-1001,0,1001"], "snr_list_db must lie within +-1000 dB or be +inf, got [-1001.0, 1001.0]"),
        (["sweep", "pilot", "--snr=-4000"], "snr_db must lie within +-1000 dB or be +inf, got [-4000.0]"),
        (["sweep", "pilot", "--snr", "1001"], "snr_db must lie within +-1000 dB or be +inf, got [1001.0]"),
        (["sweep", "snr", "--snr-list", "0,0,-0"], "snr_list_db must be strictly ascending, got [0.0, 0.0, -0.0]"),
        (["sweep", "pilot", "--pilot-list", "8,8"], "pilot_lengths must be strictly ascending, got [8, 8]"),
        (["sweep", "snr", "--snr-list", "1,1.0000000000001"], "snr_list_db points print as one CSV value: ['1']"),
    ],
)
def test_cli_rejects_bad_list_flags(tmp_path, capsys, monkeypatch, command, message):
    """List flags parse their items as config lists do: a bad item exits 2
    naming its key, and no CSV is written. A NaN or -inf SNR is one, and so
    is one beyond +-1000 dB, which used to exit 0 with rows of 0 trials, and
    so is a repeated sweep point, which used to write one row per repeat,
    and so are two points that print as one CSV value.
    Each exits before any codebook is built."""
    builds = []
    monkeypatch.setattr(harness, "build_codebooks", lambda spec: builds.append(spec))
    out = tmp_path / "out.csv"
    assert cli_main(command + ["--trials", "1", "--methods", "ls", "--out", str(out)]) == 2
    assert f"configuration error: {message}" in capsys.readouterr().err
    assert builds == []
    assert not out.exists()


@pytest.mark.parametrize(
    "command, line, message",
    [
        (
            ["sweep", "snr", "--methods", "s-somp,ls", "--snr-list", "10"],
            "num_iterations = 200",
            "num_iterations=200 (num_paths when unset) exceeds the rank budget 64 = "
            "min(P N_RF = 64 at 16 pilot slots, G = 3789 of the spherical codebook)",
        ),
        (
            ["sweep", "pilot", "--methods", "p-somp,ls"],
            "num_iterations = 33",
            "num_iterations=33 (num_paths when unset) exceeds the rank budget 32 = min(P N_RF = 32 at 8 pilot slots",
        ),
        (
            ["sweep", "pilot", "--methods", "s-somp,angular-somp", "--pilot-list", "64"],
            "num_iterations = 129",
            "num_iterations=129 (num_paths when unset) exceeds the rank budget 128 = "
            "min(P N_RF = 256 at 64 pilot slots, G = 128 of the angular codebook)",
        ),
        (
            ["trial", "--methods", "angular-somp,oracle"],
            "num_paths = 65",
            "num_iterations=65 (num_paths when unset) exceeds the rank budget 64 = min(P N_RF = 64 at 16 pilot slots",
        ),
    ],
)
def test_cli_rejects_iterations_above_the_rank_budget(tmp_path, capsys, command, line, message):
    """An iteration count above min(P N_RF, G), at the smallest pilot length
    and the smallest selected codebook, used to exit 0 with NaN rows of 0
    trials after "exceeds the rank budget" warnings. It exits 2, naming the
    budget, before the first trial, and no CSV is written."""
    config_path = tmp_path / "it.cfg"
    config_path.write_text(line + "\n")
    out = tmp_path / "out.csv"
    flags = ["--trials", "1", "--out", str(out)] if command[0] == "sweep" else []
    assert cli_main(command + ["--config", str(config_path)] + flags) == 2
    assert f"configuration error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "config, flags, message",
    [
        ("", ["--seed", "-1", "--methods", "ls", "--snr-list", "10"], "master_seed must be >= 0, got -1"),
        ("num_paths = 200\nnum_iterations = 3\n", [], "num_paths=200 exceeds num_antennas=128"),
        ("bandwidth_hz = nan\n", ["--methods", "ls,s-somp", "--snr-list", "10"], "bandwidth_hz must be finite and strictly positive, got nan"),
        ("carrier_freq_hz = inf\n", ["--methods", "ls,s-somp", "--snr-list", "10"], "carrier_freq_hz must be finite and strictly positive, got inf"),
        ("distance_range = 4, inf\n", ["--methods", "ls,s-somp", "--snr-list", "10"], "distance_range must be finite with low < high, got (4.0, inf)"),
        ("azimuth_range = 0, inf\n", ["--methods", "ls,s-somp", "--snr-list", "10"], "azimuth_range must be finite with low < high, got (0.0, inf)"),
        ("r_min_m = nan\n", ["--methods", "ls,s-somp", "--snr-list", "10"], "r_min_m must be finite and positive, got nan"),
        ("r_min_m = inf\n", ["--methods", "ls,s-somp", "--snr-list", "10"], "r_min_m must be finite and positive, got inf"),
    ],
    ids=["negative-seed", "more-paths-than-antennas", "nan-bandwidth", "inf-carrier", "inf-distance", "inf-azimuth", "nan-r-min", "inf-r-min"],
)
def test_cli_rejects_a_sweep_that_fails_every_trial_before_building_a_codebook(
    tmp_path, capsys, monkeypatch, config, flags, message
):
    """A negative seed used to exit 3 with numpy's "expected non-negative
    integer" once the bank was built, and a desk sweep of 200 paths to exit 0
    with NaN rows of 0 trials, each trial warning "path count 200 exceeds
    antenna count 128". A NaN bandwidth or an infinite range bound exited 0
    with NaN rows, a NaN or inf r_min exited 0 having searched books of the
    plane-wave ring alone, and an inf carrier exited 3. Each exits 2 before
    any codebook is built, and no CSV is written."""
    builds = []
    monkeypatch.setattr(harness, "build_codebooks", lambda spec: builds.append(spec))
    config_path = tmp_path / "run.cfg"
    config_path.write_text(config)
    out = tmp_path / "out.csv"
    argv = ["sweep", "snr", "--config", str(config_path), "--trials", "1", "--out", str(out)]
    assert cli_main(argv + flags) == 2
    assert f"configuration error: {message}" in capsys.readouterr().err
    assert builds == []
    assert not out.exists()


def test_rank_budget_admits_the_profiles_and_methods_without_somp(tmp_path):
    """Every desk and paper profile passes at both sweep kinds' smallest
    pilot length; an iteration count equal to the budget passes and one
    more does not; a sweep of no SOMP method ignores the iteration count."""
    for profile in (desk_profile, paper_profile):
        spec = profile()
        bank = build_codebooks(spec)
        for pilot_slots in (spec.system.num_pilot_slots, min(spec.pilot_lengths)):
            check_rank_budget(spec, bank, pilot_slots)
    spec = desk_profile()
    bank = build_codebooks(spec)
    check_rank_budget(dataclasses.replace(spec, num_iterations=32), bank, 8)
    with pytest.raises(ConfigurationError, match="exceeds the rank budget 32 "):
        check_rank_budget(dataclasses.replace(spec, num_iterations=33), bank, 8)
    ls_only = dataclasses.replace(spec, methods=("ls",), num_iterations=200)
    check_rank_budget(ls_only, build_codebooks(ls_only), 8)
    out = tmp_path / "ls.csv"
    config_path = tmp_path / "it.cfg"
    config_path.write_text("num_iterations = 200\n")
    argv = ["sweep", "snr", "--config", str(config_path), "--methods", "ls", "--trials", "1", "--snr-list", "10"]
    assert cli_main(argv + ["--out", str(out)]) == 0
    assert load_csv(out)[0].trials == 1


def test_cli_integer_config_values_are_exact():
    from nearfield.cli import _coerce

    assert _coerce("trials", "3") == 3 and _coerce("trials", "3.0") == 3 and _coerce("trials", "1e3") == 1000
    assert _coerce("master_seed", str(2**63 + 1)) == 2**63 + 1
    assert _coerce("delta", "0.5") == 0.5
    assert _coerce("pilot_lengths", "8, 16.0, 1e2") == (8, 16, 100)
    assert _coerce("snr_list_db", "0, 2.5") == (0.0, 2.5)


def test_cli_has_no_workers_flag(capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli_main(["trial", "--workers", "2"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --workers 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, flag",
    [
        (command, flag)
        for command in (["codebook", "build", "--out", "g.txt"], ["codebook", "stats"])
        for flag in (["--seed", "5"], ["--trials", "0"], ["--methods", "foo"])
    ]
    + [(["trial"], ["--trials", "1"])],
)
def test_cli_subcommands_take_only_the_flags_they_read(tmp_path, monkeypatch, capsys, command, flag):
    """A run flag a subcommand never reads is refused, not silently ignored:
    `codebook` builds read no seed, trial count or method list, and `trial`
    runs one trial whatever `--trials` says."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exit_info:
        cli_main(command + flag)
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert not (tmp_path / "g.txt").exists()


def test_cli_has_no_matrix_out_flag(tmp_path, capsys):
    """`codebook build` writes the grid text only: the grid rebuilds W."""
    grid, dump = tmp_path / "g.txt", tmp_path / "m.bin"
    with pytest.raises(SystemExit) as exit_info:
        cli_main(["codebook", "build", "--out", str(grid), "--matrix-out", str(dump)])
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: --matrix-out {dump}" in capsys.readouterr().err
    assert not grid.exists() and not dump.exists()


def test_library_starts_no_threads():
    """Importing nearfield, building the desk bank and running one desk
    trial start no thread and never load concurrent.futures. Run in a fresh
    interpreter, since this one has already imported the package."""
    script = textwrap.dedent(
        """
        import sys, threading

        started = []
        real_start = threading.Thread.start
        threading.Thread.start = lambda thread: started.append(thread) or real_start(thread)
        before = threading.active_count()
        import nearfield

        spec = nearfield.desk_profile()
        nearfield.run_trial(spec, 10.0, 0, nearfield.harness.build_codebooks(spec))
        assert started == [], started
        assert threading.active_count() == before, threading.enumerate()
        assert "concurrent.futures" not in sys.modules
        """
    )
    src = str(Path(nearfield.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


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
