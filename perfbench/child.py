"""One svmpath CLI invocation in a fresh interpreter, as `svmpath` would run it.

    python3 perfbench/child.py READY_FILE TRACE_FILE SRC_DIR [CLI ARGS...]

Imports `svmpath.cli` from SRC_DIR, writes the CLOCK_MONOTONIC time at which
it is ready to parse arguments to READY_FILE, then runs `svmpath.cli.main`
on the CLI arguments and exits with its code. With no CLI arguments it stops
after the import (a set-up-only spawn). When TRACE_FILE is not `-`, the
layer crossings are traced and the tracer summary is written there as JSON.
"""

import sys
import time


def main(argv) -> int:
    ready_file, trace_file, src = argv[:3]
    cli_args = argv[3:]
    sys.path.insert(0, src)
    import svmpath.cli

    ready = time.monotonic()
    with open(ready_file, "w", encoding="utf-8") as fh:
        fh.write(repr(ready))
    if not cli_args:
        return 0
    if trace_file == "-":
        return svmpath.cli.main(cli_args)

    import json

    from tracer import Tracer

    with Tracer() as tracer:
        code = svmpath.cli.main(cli_args)
    with open(trace_file, "w", encoding="utf-8") as fh:
        json.dump(tracer.summary(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
