"""Traced child process of the benchmark.

    child.py TRACE_OUT ARG...

Imports ``hzlag.cli`` under ``tracer.Tracer``, runs ``hzlag.cli.main(ARGS)``
and writes the tracer's aggregates to TRACE_OUT.  Run with the checkout's
``src`` on PYTHONPATH.
"""

from __future__ import annotations

import sys

from tracer import Tracer


def main(argv: list[str]) -> int:
    tracer = Tracer()
    cli = tracer.install()
    try:
        return cli.main(argv[1:])
    finally:
        tracer.dump(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
