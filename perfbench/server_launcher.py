"""Run ``repro.serve.server`` with the benchmark's span wrappers.

Usage: ``python server_launcher.py SPANS_PATH [server arguments...]``
(``src`` must be on ``PYTHONPATH``).  Installs the wrappers, marks each
frame read on a connection as the start of a new operation, runs
:func:`repro.serve.server.main`, and writes the spans to ``SPANS_PATH``
once the server has drained.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracing import Recorder, install, propagate_context_to_threads  # noqa: E402


def main(argv) -> int:
    spans_path, server_argv = argv[0], argv[1:]
    recorder = Recorder()
    install(recorder)
    propagate_context_to_threads()
    import repro.serve.server as server

    read_frame = server.read_frame

    async def read_request(*args, **kwargs):
        # every request on a connection starts with a frame read; spans
        # of the asyncio task and the pool work it causes follow it
        recorder.begin_op("request")
        return await read_frame(*args, **kwargs)

    server.read_frame = read_request
    try:
        return server.main(server_argv)
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
