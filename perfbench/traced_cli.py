"""Run one geomsieve CLI command with spans on every traced function.

Usage: traced_cli.py LAUNCH_TIME SPANS_OUT -- ARGS...

LAUNCH_TIME is the parent's time.perf_counter() just before it started
this process (a system-wide monotonic clock on Linux), so the time to
the end of ``import geomsieve.cli`` is interpreter start plus import.
The spans are written to SPANS_OUT as JSON when the command ends; the
exit code is the command's own.
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def main():
    launch, out_path = float(sys.argv[1]), sys.argv[2]
    argv = sys.argv[sys.argv.index("--") + 1:]
    import geomsieve.cli as cli
    process_start = time.perf_counter() - launch

    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    code = 1
    try:
        code = tracer.span("cli", cli.main, argv)
    finally:
        sys.stdout.flush()
        dump = tracer.dump()
        dump["process_start_s"] = process_start
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(dump, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
