"""Installs the benchmark's span recorder in every traced process.

The traced run puts this directory first on ``PYTHONPATH`` and names an
output directory in ``TSBENCH_SPANS_DIR``; the interpreter imports this
module at start-up in the daemon and in every worker it spawns, so each
process patches the program before it runs and writes its spans to
``$TSBENCH_SPANS_DIR/spans-<pid>.json`` when it exits.
"""

import atexit
import os

_SPANS_DIR = os.environ.get("TSBENCH_SPANS_DIR")

if _SPANS_DIR:
    from tsbench_shims import Recorder

    _recorder = Recorder()
    _recorder.install()
    atexit.register(_recorder.dump, _SPANS_DIR)
