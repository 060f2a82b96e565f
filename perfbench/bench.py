"""Workloads, timing loop, reference checks and metrics of the nearfield benchmark.

Every workload is a closed batch in one process: the benchmark calls the
public sweep API (`harness.sweep_snr` / `harness.sweep_pilot`) back to back
with `workers=1`, so each sweep starts only after the previous one returned.
The only code between the benchmark and the library is a one-call shim
around `harness.build_codebooks`, which splits each sweep into its set-up
(the codebook build) and its run, and, in traced sweeps, span wrappers
around the layer functions where `harness` and `estimator` look them up.
"""

import json
import math
import re
import resource
import statistics
import tempfile
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from nearfield import codebook, estimator, harness

from spans import Tracer, self_times

#: Seed of the reference pass; also the default --seed.
REFERENCE_SEED = 0
REFERENCE_PATH = Path(__file__).with_name("reference.json")
#: Relative tolerance on nmse_linear, against the reference and between the
#: repeated sweeps of one run. Rows agree to ~1e-15 today; 1e-6 leaves room
#: for a re-ordered but equivalent float64 computation, and none for a
#: different support or a lower-precision path.
NMSE_RTOL = 1e-6
COHERENCE_BUDGET = 2000
#: Plain and traced sweeps each, at least, in a traced run: enough for a
#: median difference (the tracing overhead) without doubling the run.
TRACED_MIN_SWEEPS = 2

KINDS = ("spherical", "polar", "angular")
METHOD_OF_KIND = {
    "spherical": harness.METHOD_S_SOMP,
    "polar": harness.METHOD_P_SOMP,
    "angular": harness.METHOD_ANGULAR,
}
_FAILURE = re.compile(r"method (\S+) failed on trial (\d+) at \w+=(.*?): ")

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("trials_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
) + tuple((f"nmse.{method}", "ratio") for method in harness.METHODS)

_PER_SWEEP_SECONDS = (
    "estimator.combining_s",
    "estimator.measure_s",
    "estimator.ls_s",
    "estimator.oracle_s",
    "estimator.nmse_s",
    "channel.sample_paths_s",
    "channel.generate_channel_s",
    "numerics.lstsq_s",
    "harness.run_trial.self_s",
    "harness.sweep.self_s",
)
_PER_SWEEP_COUNTS = (
    "estimator.s_somp.rejected_columns",
    "channel.calls",
    "numerics.lstsq_calls",
    "numerics.ill_conditioned",
    "harness.trials",
    "harness.method_failures",
)
PER_LAYER = (
    tuple((f"codebook.build_s.{k}", "s") for k in KINDS)
    + tuple((f"codebook.columns.{k}", "count") for k in KINDS)
    + tuple((f"codebook.bytes.{k}", "B") for k in KINDS)
    + (
        ("codebook.coherence_s", "s"),
        ("codebook.export_grid_s", "s"),
        ("codebook.export_matrix_s", "s"),
        ("codebook.load_grid_s", "s"),
        ("codebook.load_matrix_s", "s"),
        ("codebook.export_bytes", "B"),
    )
    + tuple((f"estimator.s_somp.correlate_s.{k}", "s") for k in KINDS)
    + tuple((f"estimator.s_somp.select_s.{k}", "s") for k in KINDS)
    + (("estimator.s_somp.lstsq_per_iteration", "ratio"),)
    + tuple((f"estimator.s_somp.flops_computed.{k}", "flop") for k in KINDS)
    + tuple((f"estimator.s_somp.bytes_computed.{k}", "B") for k in KINDS)
    + tuple((name, "s") for name in _PER_SWEEP_SECONDS)
    + tuple((name, "count") for name in _PER_SWEEP_COUNTS)
    + (("harness.failed_ratio", "ratio"), ("trace.overhead_s", "s"))
)

# Span name -> per-sweep metric that sums the span's full duration.
_DURATION_METRIC = {
    "estimator.combining": "estimator.combining_s",
    "estimator.measure": "estimator.measure_s",
    "estimator.ls": "estimator.ls_s",
    "estimator.oracle": "estimator.oracle_s",
    "estimator.nmse": "estimator.nmse_s",
    "channel.sample_paths": "channel.sample_paths_s",
    "channel.generate_channel": "channel.generate_channel_s",
}


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "snr" or "pilot"
    profile: object  # harness.desk_profile or harness.paper_profile
    trials: int  # trials per sweep point in one timed sweep
    reference_trials: int  # trials per sweep point in the reference pass
    min_sweeps: int  # untraced sweeps per untraced run, however short --seconds is
    overrides: dict = field(default_factory=dict)

    def spec(self, seed: int, trials: int) -> harness.RunSpec:
        return self.profile(master_seed=seed, trials=trials, workers=1, **self.overrides)

    def sweep(self, spec) -> harness.SweepResult:
        return harness.sweep_snr(spec) if self.kind == "snr" else harness.sweep_pilot(spec)

    def points(self, spec) -> int:
        return len(spec.snr_list_db if self.kind == "snr" else spec.pilot_lengths)

    def pairs(self, spec) -> int:
        """(method, trial) pairs one sweep attempts."""
        return self.points(spec) * spec.trials * len(spec.methods)


WORKLOADS = {
    w.name: w
    for w in (
        # Many small trials: per-trial overhead and small-matrix work dominate.
        Workload("desk-snr", "snr", harness.desk_profile, 10, 8, 5),
        # P*N_RF grows 32 -> 256, so A @ W and LS change shape (LS is square at P = 32).
        Workload("desk-pilot", "pilot", harness.desk_profile, 8, 8, 5),
        # N = 512: a 100 358-column codebook build and S-SOMP against it.
        Workload(
            "paper-trial", "snr", harness.paper_profile, 4, 2, 4,
            overrides={"snr_list_db": (10.0,)},
        ),
    )
}


class Builds:
    """Stands in for `harness.build_codebooks`: times every build, keeps the
    last bank, and with `reuse` set hands that bank back without building."""

    def __init__(self, real):
        self.real = real
        self.bank = None
        self.seconds: list = []
        self.reuse = False

    def __call__(self, spec):
        if self.reuse and self.bank is not None:
            return self.bank
        self.bank = None  # let the previous bank go before the next is built
        start = time.perf_counter()
        bank = self.real(spec)
        self.seconds.append(time.perf_counter() - start)
        self.bank = bank
        return bank


@contextmanager
def patched(replacements):
    """Set (module, attribute, value) triples; restore the old values on exit."""
    saved = [(module, name, getattr(module, name)) for module, name, _ in replacements]
    try:
        for module, name, value in replacements:
            setattr(module, name, value)
        yield
    finally:
        for module, name, value in reversed(saved):
            setattr(module, name, value)


def trial_key(kind: str, sweep_value, trial_index: int) -> str:
    """'snr=10.0#3': str() and repr() agree on the int and float sweep values."""
    return f"{kind}={sweep_value!r}#{trial_index}"


def instrument(tracer: Tracer, builds: Builds) -> list:
    """Replacements that put a span around each layer call of a sweep."""
    wrap = tracer.wrap

    def on_somp(span, args, result):
        measurements, combining, book = args[:3]
        kind = next((k for k in KINDS if getattr(builds.bank, k, None) is book), "other")
        rows = combining.entries.shape[0]
        n, g = book.matrix.shape
        m = measurements.observations.shape[1]
        iters = len(result.support)
        # Computed from shapes: A @ W, then one correlation per iteration;
        # bytes read W, write the dictionary and read it once per iteration.
        span.attrs.update(
            kind=kind,
            support=list(result.support),
            iterations=iters,
            flops=8 * rows * n * g + 8 * iters * rows * g * m,
            bytes=16 * (n * g + rows * g + iters * rows * g),
        )

    def on_lstsq(span, args, result):
        span.attrs["ok"] = bool(result[1])

    traced_trial = wrap("harness.run_trial", harness.run_trial)

    def run_trial(spec, sweep_value, trial_index, bank=None, kind="snr"):
        tracer.trial = trial_key(kind, sweep_value, trial_index)
        try:
            return traced_trial(spec, sweep_value, trial_index, bank, kind)
        finally:
            tracer.trial = None

    return [
        (harness, "build_codebooks", wrap("harness.build_codebooks", builds)),
        (harness, "build_spherical_codebook",
         wrap("codebook.build.spherical", harness.build_spherical_codebook)),
        (harness, "build_polar_codebook",
         wrap("codebook.build.polar", harness.build_polar_codebook)),
        (harness, "build_angular_codebook",
         wrap("codebook.build.angular", harness.build_angular_codebook)),
        (harness, "run_trial", run_trial),
        (harness, "sample_paths", wrap("channel.sample_paths", harness.sample_paths)),
        (harness, "generate_channel",
         wrap("channel.generate_channel", harness.generate_channel)),
        (estimator, "generate_combining",
         wrap("estimator.combining", estimator.generate_combining)),
        (estimator, "synthesize_measurements",
         wrap("estimator.measure", estimator.synthesize_measurements)),
        (estimator, "s_somp", wrap("estimator.s_somp", estimator.s_somp, on_somp)),
        (estimator, "ls_estimate", wrap("estimator.ls", estimator.ls_estimate)),
        (estimator, "oracle_estimate", wrap("estimator.oracle", estimator.oracle_estimate)),
        (estimator, "nmse", wrap("estimator.nmse", estimator.nmse)),
        (estimator, "lstsq_minimum_norm",
         wrap("numerics.lstsq", estimator.lstsq_minimum_norm, on_lstsq)),
    ]


def timed_sweep(workload: Workload, spec, builds: Builds, tracer: Tracer | None = None):
    """One sweep. Returns (rows, run seconds, warning texts); the run excludes
    the codebook build the sweep made."""
    before = len(builds.seconds)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = time.perf_counter()
        if tracer is None:
            rows = workload.sweep(spec).rows
        else:
            with patched(instrument(tracer, builds)):
                index = tracer.begin("harness.sweep")
                try:
                    rows = workload.sweep(spec).rows
                finally:
                    tracer.end(index)
        total = time.perf_counter() - start
    build = builds.seconds[-1] if len(builds.seconds) > before else 0.0
    return rows, total - build, [str(w.message) for w in caught]


def failed_pairs(tag, spec, rows, messages) -> set:
    """(tag, sweep value, method, trial) of every pair a sweep reports as
    failed: a per-method failure warning from harness, or a NaN row."""
    failed = set()
    for text in messages:
        match = _FAILURE.match(text)
        if match:
            failed.add((tag, match.group(3), match.group(1), int(match.group(2))))
    for row in rows:
        if not math.isfinite(row.nmse_linear):
            failed.update(row_pairs(tag, spec, (str(row.sweep_value), row.method)))
    return failed


def row_pairs(tag, spec, key) -> set:
    value, method = key
    return {(tag, value, method, i) for i in range(spec.trials)}


def row_table(rows) -> list:
    return [[str(r.sweep_value), r.method, r.nmse_linear] for r in rows]


def row_mismatches(table, expected) -> list:
    """(sweep value, method) keys whose nmse_linear differs beyond NMSE_RTOL,
    or that only one of the two tables has."""
    got = {(v, m): x for v, m, x in table}
    want = {(v, m): x for v, m, x in expected}
    return sorted(
        key
        for key in got.keys() | want.keys()
        if key not in got
        or key not in want
        or not math.isclose(got[key], want[key], rel_tol=NMSE_RTOL)
    )


def supports_of(spans) -> dict:
    """'<trial>/<codebook kind>' -> S-SOMP support, from traced s_somp spans."""
    return {
        f"{s.trial}/{s.attrs['kind']}": s.attrs["support"]
        for s in spans
        if s.name == "estimator.s_somp" and "support" in s.attrs
    }


def support_mismatches(got: dict, want: dict) -> list:
    return sorted(k for k in got.keys() | want.keys() if got.get(k) != want.get(k))


def reference_pass(workload: Workload, builds: Builds, tracer: Tracer | None = None):
    """The workload's sweep at REFERENCE_SEED with reference_trials trials."""
    spec = workload.spec(REFERENCE_SEED, workload.reference_trials)
    rows, _, messages = timed_sweep(workload, spec, builds, tracer)
    return spec, rows, messages


def capture_reference(workload: Workload) -> dict:
    """Rows and S-SOMP supports of the reference pass, as reference.json stores them."""
    builds = Builds(harness.build_codebooks)
    tracer = Tracer()
    with patched([(harness, "build_codebooks", builds)]):
        spec, rows, _ = reference_pass(workload, builds, tracer)
    return {
        "seed": spec.master_seed,
        "trials": spec.trials,
        "rows": row_table(rows),
        "supports": supports_of(tracer.spans),
    }


def load_reference(path=REFERENCE_PATH) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def codebook_round_trip(book, workdir: Path):
    """Diagnostics and export/load of one codebook, each call in a span.
    Returns (tracer, bytes written, round trip equal)."""
    tracer = Tracer()
    wrap = tracer.wrap
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        grid_path = Path(tmp) / "grid.txt"
        matrix_path = Path(tmp) / "matrix.bin"
        wrap("codebook.coherence", codebook.coherence_stats)(book, COHERENCE_BUDGET)
        wrap("codebook.export_grid", codebook.export_grid_text)(book, grid_path)
        wrap("codebook.export_matrix", codebook.export_matrix_binary)(book, matrix_path)
        written = grid_path.stat().st_size + matrix_path.stat().st_size
        grid = wrap("codebook.load_grid", codebook.load_grid_text)(grid_path)
        matrix = wrap("codebook.load_matrix", codebook.load_matrix_binary)(matrix_path)
        equal = grid == book.grid and np.array_equal(matrix, book.matrix)
    return tracer, written, equal


def sweep_totals(spans) -> dict:
    """Raw sums over one traced sweep's spans, keyed like the per-layer metrics."""
    own = self_times(spans)
    out: dict = {}

    def add(key, value):
        out[key] = out.get(key, 0.0) + value

    for i, span in enumerate(spans):
        name = span.name
        if name in _DURATION_METRIC:
            add(_DURATION_METRIC[name], span.duration)
            if name.startswith("channel."):
                add("channel.calls", 1)
        elif name == "harness.sweep":
            add("harness.sweep.self_s", own[i])
        elif name == "harness.run_trial":
            add("harness.run_trial.self_s", own[i])
            add("harness.trials", 1)
        elif name.startswith("codebook.build."):
            add("codebook.build_s." + name.rsplit(".", 1)[1], span.duration)
        elif name == "estimator.s_somp" and "kind" in span.attrs:
            kind = span.attrs["kind"]
            add(f"estimator.s_somp.correlate_s.{kind}", own[i])
            add(f"somp_calls.{kind}", 1)
            add(f"somp_flops.{kind}", span.attrs["flops"])
            add(f"somp_bytes.{kind}", span.attrs["bytes"])
            add("somp_iterations", span.attrs["iterations"])
        elif name == "numerics.lstsq":
            add("numerics.lstsq_s", span.duration)
            add("numerics.lstsq_calls", 1)
            ok = span.attrs.get("ok", False)
            if not ok:
                add("numerics.ill_conditioned", 1)
            parent = spans[span.parent] if span.parent >= 0 else None
            if parent is not None and parent.name == "estimator.s_somp" and "kind" in parent.attrs:
                add(f"estimator.s_somp.select_s.{parent.attrs['kind']}", span.duration)
                add("somp_lstsq", 1)
                if not ok:
                    add("estimator.s_somp.rejected_columns", 1)
    return out


def layer_metrics(tracers, bank, round_trip, failure_warnings, sweeps, failed_ratio, overhead) -> dict:
    """Per-layer metrics: times and counts are means per traced sweep."""
    totals: dict = {}
    for tracer in tracers:
        for key, value in sweep_totals(tracer.spans).items():
            totals[key] = totals.get(key, 0.0) + value
    n = max(len(tracers), 1)
    metrics = {name: 0.0 for name, _ in PER_LAYER}
    for name in metrics:
        if name in totals:
            metrics[name] = totals[name] / n
    for kind in KINDS:
        book = getattr(bank, kind)
        if book is not None:
            metrics[f"codebook.columns.{kind}"] = book.num_columns
            metrics[f"codebook.bytes.{kind}"] = book.matrix.nbytes
        calls = totals.get(f"somp_calls.{kind}", 0)
        if calls:
            metrics[f"estimator.s_somp.flops_computed.{kind}"] = totals[f"somp_flops.{kind}"] / calls
            metrics[f"estimator.s_somp.bytes_computed.{kind}"] = totals[f"somp_bytes.{kind}"] / calls
    if totals.get("somp_iterations"):
        metrics["estimator.s_somp.lstsq_per_iteration"] = (
            totals.get("somp_lstsq", 0.0) / totals["somp_iterations"]
        )
    trip_tracer, written, _ = round_trip
    for span in trip_tracer.spans:
        metrics[span.name + "_s"] = span.duration
    metrics["codebook.export_bytes"] = written
    metrics["harness.method_failures"] = failure_warnings / sweeps
    metrics["harness.failed_ratio"] = failed_ratio
    metrics["trace.overhead_s"] = overhead
    return metrics


@dataclass
class Outcome:
    attempted: int
    failed: int
    metrics: dict
    spans: list  # (phase, Tracer)
    problems: list  # human-readable reasons for failed pairs
    samples: dict  # per-sweep timings behind the medians

    @property
    def correct(self) -> bool:
        return self.failed == 0


def geometric_mean_nmse(rows, method) -> float:
    """10^(mean nmse_db / 10) over the sweep points of one method."""
    values = [r.nmse_linear for r in rows if r.method == method]
    if not values or not all(v > 0.0 and math.isfinite(v) for v in values):
        return math.nan
    return math.exp(statistics.fmean(math.log(v) for v in values))


def run(workload: Workload, seed: int, seconds: float, traced: bool, reference: dict,
        workdir: Path, import_s: float = 0.0) -> Outcome:
    """Time sweeps at `seed` for at least `seconds`, then check the reference
    pass. Untraced runs return the end-to-end metrics, traced runs the
    per-layer ones; traced runs alternate plain and traced sweeps."""
    if reference["seed"] != REFERENCE_SEED or reference["trials"] != workload.reference_trials:
        raise ValueError(f"reference for {workload.name} was captured with other settings")
    builds = Builds(harness.build_codebooks)
    spec = workload.spec(seed, workload.trials)
    plain, traced_runs, tracers, spans = [], [], [], []
    attempted, failed, problems = 0, set(), []
    failure_warnings = 0
    first = None
    with patched([(harness, "build_codebooks", builds)]):
        deadline = time.perf_counter() + seconds
        sweeps = 0
        while True:
            tracer = Tracer() if traced and sweeps % 2 == 1 else None
            rows, run_s, messages = timed_sweep(workload, spec, builds, tracer)
            if tracer is None:
                plain.append((run_s, builds.seconds[-1]))
            else:
                traced_runs.append(run_s)
                tracers.append(tracer)
                spans.append((f"sweep{sweeps}", tracer))
            attempted += workload.pairs(spec)
            failed |= failed_pairs(sweeps, spec, rows, messages)
            failure_warnings += sum(1 for m in messages if _FAILURE.match(m))
            table = row_table(rows)
            if first is None:
                first = table
            for key in row_mismatches(table, first):
                problems.append(f"sweep {sweeps} row {key} differs from sweep 0")
                failed |= row_pairs(sweeps, spec, key)
            sweeps += 1
            if traced:
                enough = len(plain) >= TRACED_MIN_SWEEPS and len(traced_runs) >= TRACED_MIN_SWEEPS
            else:
                enough = len(plain) >= workload.min_sweeps
            if enough and time.perf_counter() >= deadline:
                break

        builds.reuse = True
        ref_tracer = Tracer() if traced else None
        ref_spec, ref_rows, messages = reference_pass(workload, builds, ref_tracer)
    attempted += workload.pairs(ref_spec)
    failed |= failed_pairs("reference", ref_spec, ref_rows, messages)
    for key in row_mismatches(row_table(ref_rows), reference["rows"]):
        problems.append(f"reference row {key} differs")
        failed |= row_pairs("reference", ref_spec, key)

    if traced:
        spans.append(("reference", ref_tracer))
        for key in support_mismatches(supports_of(ref_tracer.spans), reference["supports"]):
            problems.append(f"reference support {key} differs")
            trial, kind = key.rsplit("/", 1)
            value, trial_index = trial.split("=", 1)[1].rsplit("#", 1)
            failed.add(("reference", value, METHOD_OF_KIND.get(kind, kind), int(trial_index)))
        round_trip = codebook_round_trip(builds.bank.spherical, workdir)
        spans.append(("codebook", round_trip[0]))
        attempted += 1
        if not round_trip[2]:
            problems.append("codebook export/load round trip differs")
            failed.add(("codebook-round-trip",))
        overhead = statistics.median(traced_runs) - statistics.median(r for r, _ in plain)
        metrics = layer_metrics(
            tracers, builds.bank, round_trip, failure_warnings, sweeps,
            len(failed) / attempted, overhead,
        )
    else:
        run_s = statistics.median(r for r, _ in plain)
        metrics = {
            "setup_s": import_s + statistics.median(b for _, b in plain),
            "run_s": run_s,
            "trials_per_s": workload.points(spec) * spec.trials / run_s,
            "peak_rss_mb": peak_rss_mb(),
        }
        for method in harness.METHODS:
            metrics[f"nmse.{method}"] = geometric_mean_nmse(ref_rows, method)
    failed_count = len(failed)
    if failed_count and not problems:
        problems.append(f"{failed_count} (method, trial) pairs failed or returned NaN")
    samples = {
        "run_s": [r for r, _ in plain],
        "build_s": [b for _, b in plain],
        "traced_run_s": traced_runs,
    }
    return Outcome(attempted, failed_count, metrics, spans, problems, samples)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
