"""Every command but ``verify`` on the standard library alone.

Runs each command below in this one process, its output discarded, and
exits nonzero unless each ends with its expected exit code and leaves numpy
unloaded.  Run it from any directory, with or without numpy installed:

    python tests/cli_without_numpy.py

It puts the checkout's ``src`` first on the path, so it tests that code.
"""

import contextlib
import io
import shlex
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from permcode.cli import main  # noqa: E402

# (command line, expected exit code)
COMMANDS = (
    ("pmax --n 50 --d 25 --method exact", 0),
    ("pmax --method exact --n 40 --d 15", 0),  # forks its shares
    ("pmax --n 200 --d 100 --method plancherel --samples 500 --seed 1", 0),
    ("pmax --method plancherel --n 40 --d 15 --samples 50", 0),
    ("pmax --n 200 --d 20 --method schur-weyl --samples 500 --seed 1", 0),
    ("pmax --method schur-weyl --n 40 --d 15 --samples 50", 0),
    ("sweep --r 0.3 --n-list 10,40,80 --samples 200 --seed 2", 0),
    ("sweep --r 0.5 --n-list 8,70 --samples 20", 0),
    ("classical --n 10 --d 3", 0),
    ("bounds", 0),
    ("bounds --kerov-n 10 --kerov-row-n 10 --kerov-row-d 4 --erdos-n 50", 0),
    ("sample --measure plancherel --n 30 --count 5 --seed 3", 0),
    ("sample --measure schur-weyl --n 10 --d 3 --count 20", 0),
    ("pmax --n 0 --d 1", 1),  # the error handler loads nothing either
)


def run() -> None:
    for command, expected in COMMANDS:
        print(f"$ permcode {command}", flush=True)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(shlex.split(command))
        if code != expected:
            sys.exit(f"permcode {command} exited {code}, not {expected}")
        if "numpy" in sys.modules:
            sys.exit(f"permcode {command} loaded numpy")


if __name__ == "__main__":
    run()
