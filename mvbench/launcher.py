"""Traced CLI child: ``python launcher.py SPANS_FILE CLI_ARGS...``.

Imports ``mveq`` from the checkout's ``src/``, installs the same span
wrappers as the in-process workloads, runs ``mveq.cli.main(CLI_ARGS)``
and writes the spans, the counters and ``mveq.__file__`` to SPANS_FILE.
Exits with the CLI's exit code.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import mveq  # noqa: E402
import mveq.cli  # noqa: E402

import spans  # noqa: E402


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    tracer.install(mveq)
    try:
        code = mveq.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(out_path, mveq_file=os.path.abspath(mveq.__file__))
    return code


if __name__ == "__main__":
    sys.exit(main())
