"""Run one catscope command as ``python -m catscope`` would, with tracing.

    PYTHONPATH=src python3 perfbench/traced_child.py basis --n 3 --alpha 1+0i

Stdout and the exit code are the CLI's own.  The last stderr line is
``SPANS_MARKER`` followed by the spans and counts as JSON, for the traced run
of the ``cli_processes`` workload.
"""

import json
import sys

import catscope.cli

from tracing import SPANS_MARKER, Tracer


def main() -> int:
    tracer = Tracer()
    tracer.install()
    code = catscope.cli.main(sys.argv[1:])
    sys.stdout.flush()
    sys.stderr.write(SPANS_MARKER + json.dumps(
        {"spans": tracer.spans, "counts": tracer.counts}) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
