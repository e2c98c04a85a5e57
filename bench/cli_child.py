"""Traced stand-in for `python -m conestab.cli`.

    python3 bench/cli_child.py TOTALS_JSON CLI_ARG...

Installs the span wrappers, runs cli.main(CLI_ARG...), writes the
per-function totals {name: [calls, self seconds]} to TOTALS_JSON and exits
with cli.main's exit code.  The parent puts the checkout's src on
PYTHONPATH.
"""

import sys

import tracing
from conestab import cli


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    rec = tracing.Recorder()
    with tracing.installed(rec):
        code = cli.main(argv)
    sys.stdout.flush()
    tracing.write_totals(out, rec.totals())
    return code


if __name__ == "__main__":
    sys.exit(main())
