"""Entry point of the end-to-end serving benchmark.

Run from the repository root::

    python3 servebench/run.py --workload gist-knn --seed 1 --seconds 55 --trace 0

It serves the program from ``src/`` of the same checkout and exits with
code 2, printing no result, when those sources are missing.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if __name__ == "__main__":
    if not (SRC / "repro").is_dir():
        print(f"servebench: no program sources at {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(SRC), str(ROOT)]
    from servebench.bench import main

    sys.exit(main())
