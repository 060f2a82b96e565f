"""Run one nearfield benchmark workload and print its metrics.

    python3 perfbench/run.py --workload desk-snr --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout: it imports `nearfield` from
./src and refuses to run without it. The last line of standard output is
one JSON object {"correct", "attempted", "failed", "metrics"}; the line
before it records the environment. With --trace 0 the metrics are the
end-to-end ones, with --trace 1 the per-layer ones of a traced run. The
full result, and in traced runs every span, is also written under
./.perfbench/. See perfbench/README.md for what each metric means.
"""

import argparse
import json
import math
import os
import platform
import sys
import time
from pathlib import Path

_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout's git repository, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args, threads: int, root: Path) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_version = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": cpu_count(),
        "blas_threads": threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_version,
        "machine": platform.machine(),
        "git_commit": git_commit(root),
    }


def _finite(value):
    return value if isinstance(value, (int, float)) and math.isfinite(value) else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")

    root = Path.cwd()
    src = root / "src"
    # One process, BLAS threads = the CPUs this process may use; set before
    # numpy loads OpenBLAS.
    threads = cpu_count()
    for name in _THREAD_VARIABLES:
        os.environ[name] = str(threads)

    start = time.perf_counter()
    sys.path.insert(0, str(src))
    try:
        import nearfield
    except ImportError as exc:
        print(f"perfbench: cannot import nearfield from {src}: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - start
    if not Path(nearfield.__file__).resolve().is_relative_to(src.resolve()):
        print(f"perfbench: nearfield was imported from {nearfield.__file__}, not {src}",
              file=sys.stderr)
        return 2

    import bench

    workload = bench.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(bench.WORKLOADS)}", file=sys.stderr)
        return 2
    reference = bench.load_reference()[workload.name]
    workdir = root / ".perfbench"
    workdir.mkdir(exist_ok=True)

    outcome = bench.run(workload, args.seed, args.seconds, bool(args.trace), reference,
                        workdir, import_s)

    units = bench.PER_LAYER if args.trace else bench.END_TO_END
    result = {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": _finite(outcome.metrics[name]), "unit": unit}
            for name, unit in units
        },
    }
    env = environment(args, threads, root)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    with open(workdir / f"result-{stem}.json", "w", encoding="utf-8") as handle:
        json.dump(
            {"env": env, "problems": outcome.problems, "samples": outcome.samples, **result},
            handle,
            indent=1,
        )
    if args.trace:
        with open(workdir / f"spans-{stem}.json", "w", encoding="utf-8") as handle:
            json.dump(
                [
                    {"phase": phase, "name": s.name, "start": s.start, "end": s.end,
                     "parent": s.parent, "trial": s.trial, **s.attrs}
                    for phase, tracer in outcome.spans
                    for s in tracer.spans
                ],
                handle,
            )
    for problem in outcome.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
