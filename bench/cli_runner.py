"""Run one hilbert-selberg command with the layer wrappers installed.

    python3 -X importtime bench/cli_runner.py SPANS_JSON ARGV...

Behaves like `python -m hilbert_selberg ARGV...`: same stdout, stderr and
exit code.  The spans of the command go to SPANS_JSON.  The package is
imported first, so -X importtime reports its whole import cost.
"""

import sys

import hilbert_selberg.cli as cli

import json

import spans


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    idx = tracer.open("timed")
    try:
        rc = cli.main(argv)
    finally:
        tracer.close(idx)
        spans.uninstall(undo)
        with open(out_path, "w") as fh:
            json.dump(tracer.spans, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
