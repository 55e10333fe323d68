"""Child-process entry of the benchmark: ``repro``'s CLI, optionally traced.

    python3 perfbench/bootstrap.py --trace SPANS.json -- analyze FILE ...
    python3 perfbench/bootstrap.py --many ARGV.json

``--trace`` installs the span recorder (:mod:`spans`) before running one
CLI command and writes the spans to ``SPANS.json`` when the process exits;
the command is otherwise exactly ``python -m repro ...``.  ``--many`` runs a
JSON list of CLI argument lists in this one process, untraced — the
cli-oneshot workload fills its warm cache that way.
"""

from __future__ import annotations

import atexit
import io
import json
import sys


def main(argv: list[str]) -> int:
    if argv[:1] == ["--many"]:
        from repro.cli import run

        with open(argv[1]) as handle:
            commands = json.load(handle)
        for command in commands:
            code = run(command, out=io.StringIO())
            if code != 0:
                return code
        return 0
    if argv[:1] != ["--trace"] or argv[2:3] != ["--"]:
        print(__doc__, file=sys.stderr)
        return 2
    from spans import SpanRecorder, install

    recorder = SpanRecorder()
    install(recorder)
    atexit.register(recorder.dump, argv[1])
    from repro.cli import run

    return run(argv[3:])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
