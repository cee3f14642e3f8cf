"""Traced stand-in for ``python -m toricarr``.

Usage: python perfbench/traced_cli.py SPANS_DIR ANSWER_ID <toricarr args>

Installs the layer wrappers, runs ``toricarr.cli.run`` on the remaining
arguments and writes the spans to SPANS_DIR/<pid>.json when the command
ends.  The exit code is the CLI's own.
"""

import os
import sys

from tracing import Tracer


def main():
    out = os.path.join(sys.argv[1], "%d.json" % os.getpid())
    answer = sys.argv[2]
    tracer = Tracer(answer)
    absent = tracer.install()
    import toricarr.cli
    try:
        code = toricarr.cli.run(sys.argv[3:])
    finally:
        tracer.dump(out, absent)
    return code


if __name__ == "__main__":
    sys.exit(main())
