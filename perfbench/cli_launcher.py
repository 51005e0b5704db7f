"""Run one qolcr CLI command with span recording around the qolcr layers.

    python perfbench/cli_launcher.py SPANS.json <qolcr arguments...>

Times the import of qolcr.cli, installs the same wrappers the in-process
workloads use, calls qolcr.cli.main with the remaining arguments, and
writes {"import_s": ..., "spans": [...]} to SPANS.json when the command
returns. Exits with the command's exit code. qolcr must be importable
(the benchmark puts the checkout's src/ on PYTHONPATH).
"""

import json
import sys
import time

t0 = time.perf_counter()
import qolcr.cli  # noqa: E402

import_s = time.perf_counter() - t0

import layers  # noqa: E402
from spans import Tracer, install  # noqa: E402


def main(argv):
    out, args = argv[0], argv[1:]
    tracer = Tracer()
    restore = install(tracer, *layers.targets())
    try:
        code = qolcr.cli.main(args)
    finally:
        restore()
        with open(out, "w") as fh:
            json.dump({"import_s": import_s, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
