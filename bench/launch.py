"""Run one wbwaves CLI command in this process and record what the bench needs.

Usage: python3 bench/launch.py RECORD MODE -- <wbwaves arguments>

Writes RECORD (JSON) when the command ends: the CLOCK_MONOTONIC reading at
which the first initial state was built (the end of set-up), the exit code,
and with MODE=trace the per-layer spans and counts.  With MODE=setup the
process writes the record and exits as soon as set-up ends, so that set-up
can be timed more often than whole commands.  CLOCK_MONOTONIC is
system-wide, so the parent can subtract its own spawn time from the mark.
"""

from __future__ import annotations

import json
import os
import sys
import time

MODES = ("run", "trace", "setup")


def _write(record, record_path):
    with open(record_path, "w") as fh:
        json.dump(record, fh)


def _mark_setup(record, fn, exit_to=None):
    def marked(*args, **kwargs):
        result = fn(*args, **kwargs)
        record.setdefault("setup_mark", time.clock_gettime(time.CLOCK_MONOTONIC))
        if exit_to is not None:
            _write(record, exit_to)
            os._exit(0)
        return result

    return marked


def main(argv):
    record_path, mode, sep, *command = argv
    if sep != "--" or mode not in MODES:
        raise SystemExit(f"usage: launch.py RECORD MODE({'|'.join(MODES)}) -- <wbwaves arguments>")
    import wbwaves.cli as cli
    from wbwaves.config import RunConfig

    record = {}
    # A run builds its state in RunConfig.initial_state, a study family in
    # small_data_family; whichever returns first ends set-up.
    exit_to = record_path if mode == "setup" else None
    RunConfig.initial_state = _mark_setup(record, RunConfig.initial_state, exit_to)
    cli.small_data_family = _mark_setup(record, cli.small_data_family, exit_to)
    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    code = 1
    try:
        code = cli.main(command)
    finally:
        record["exit_code"] = code
        if tracer is not None:
            record["trace"] = tracer.snapshot()
        _write(record, record_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
