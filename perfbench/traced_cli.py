"""Run one ``mobius_centers`` command with span tracing.

Usage: python perfbench/traced_cli.py SPANS_JSON <command line arguments>

The package must be importable (PYTHONPATH=src).  The command's output and
exit status are those of ``python -m mobius_centers``; the spans and counts
of the task are written to SPANS_JSON when it ends.
"""

import sys

from tracer import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    from mobius_centers import cli

    try:
        return cli.main(argv)
    finally:
        sys.stdout.flush()
        tracer.dump(spans_path)


if __name__ == "__main__":
    raise SystemExit(main())
