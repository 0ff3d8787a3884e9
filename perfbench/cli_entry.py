"""Traced entry point for ``sqdisp.cli``.

Times ``import sqdisp.cli``, installs the layer wrappers, calls
``sqdisp.cli.main(argv)`` and writes the spans when the process ends, also
when ``main`` raises.  Usage:

    python perfbench/cli_entry.py SPANS_FILE JOB_ID -- <sqdisp arguments>
"""

import sys

import tracing


def main():
    spans_path, job = sys.argv[1], int(sys.argv[2])
    if sys.argv[3] != "--":
        raise SystemExit("usage: cli_entry.py SPANS_FILE JOB_ID -- ARGS")
    tracer = tracing.Tracer()
    tracer.job = job
    try:
        index = tracer.open("cli.import")
        import sqdisp.cli
        tracer.close(index)
        tracer.install()
        index = tracer.open("cli.main")
        try:
            return sqdisp.cli.main(sys.argv[4:])
        finally:
            tracer.close(index)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
