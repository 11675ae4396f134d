"""loopnet benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N --seconds S --trace 0|1]

Run from the root of a loopnet checkout; the library is imported from its
``src`` directory.  See perfbench/README.md for the workloads and metrics.
"""

import os
import sys
import time
from pathlib import Path

START = time.perf_counter()

# One BLAS/OpenMP thread, fixed before numpy is first imported.
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                    "NUMEXPR_NUM_THREADS")


def main() -> int:
    for name in THREAD_VARIABLES:
        os.environ[name] = "1"
    script = Path(__file__).resolve()
    root = script.parent.parent
    src = root / "src"
    if not (src / "loopnet" / "__init__.py").is_file():
        print(f"perfbench: no loopnet sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import loopnet

    if src not in Path(loopnet.__file__).resolve().parents:
        print(f"perfbench: imported loopnet from {loopnet.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2
    import harness

    return harness.main(sys.argv[1:], START, root, script)


if __name__ == "__main__":
    sys.exit(main())
