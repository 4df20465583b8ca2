"""A reader that closes the pipe early, as ``sejoin ... | head -1`` does,
makes the command exit 1, the code of a failed ``--out`` write, with no
traceback, both through ``python -m sejoin`` and through the ``sejoin``
console script, which calls ``sejoin.cli:main``."""

import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

ENTRIES = {
    "module": ["-m", "sejoin"],
    # what the generated console script runs
    "script": ["-c", "import sys; from sejoin.cli import main; sys.exit(main())"],
}


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=("buffered", "unbuffered"))
@pytest.mark.parametrize("entry", sorted(ENTRIES))
@pytest.mark.parametrize("argv", [
    # a few lines
    ["join", "--p", "13", "--q", "8", "--w", "2,1"],
    # about 290 KB, more than a 64 KB pipe buffer, written in one call
    ["export", "--p", "13", "--q", "8", "--w-bound", "30", "--format", "json"],
    # argparse writes the help and exits by SystemExit
    ["--help"],
    ["export", "--help"],
], ids=("join", "export", "help", "export-help"))
def test_closed_pipe_exits_1_without_a_traceback(entry, argv, unbuffered):
    # buffered, a short output first meets the closed pipe when it is flushed
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    # the read end is closed before the command starts, so its first write
    # to standard output fails, however large the pipe buffer is
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable] + ENTRIES[entry] + argv, env=env,
                              stdout=write_end, stderr=subprocess.PIPE, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b""
