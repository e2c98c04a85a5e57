"""One cold set-up: import conestab.cli and build every family's inputs.

    python3 bench/setup_probe.py SEED

The parent times this process from start to exit as one sample of
setup_s.  The parent puts the checkout's src on PYTHONPATH.
"""

import sys

import conestab.cli  # noqa: F401  (the import is part of what is timed)
import workloads


def main() -> int:
    workloads.build_families(int(sys.argv[1]), workloads.FULL, workloads.Tally(), {})
    return 0


if __name__ == "__main__":
    sys.exit(main())
