"""Rewrite perfbench/reference.json from the code in ./src.

    python3 perfbench/capture_reference.py

Run it from the root of a source checkout, only when the library's numbers
are meant to change; every benchmark run checks its reference pass against
this file.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

import bench  # noqa: E402


def main() -> int:
    reference = {name: bench.capture_reference(w) for name, w in bench.WORKLOADS.items()}
    with open(bench.REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
