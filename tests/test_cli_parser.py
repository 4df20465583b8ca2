"""The command-line parser is built once per process and shared by every
``cli.main`` call: it must carry no state from one call to the next, be
built exactly once, and format its help at the width of the moment."""

import argparse
import contextlib
import io
import os
import pathlib
import re
import subprocess
import sys

import pytest

from sejoin import cli

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

# every subcommand and the flags its help must name; verify-paper's
# --corrupt is hidden from help on purpose
JOIN_FLAGS = ["--p", "--q", "--k", "--w", "--k-list", "--w-bound", "--digits"]
FLAGS = {
    "ypq": ["--max", "--json"],
    "join": JOIN_FLAGS + ["--json"],
    "family": ["--t", "--k2", "--digits", "--json"],
    "verify-paper": [],
    "profile": ["--record", "--grid", "--decimal"],
    "export": JOIN_FLAGS + ["--family-t", "--format", "--out"],
}


def _in_process(run, argv):
    """(exit code, stdout bytes) of ``run(argv)``, argparse's SystemExit
    included."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue().encode("utf-8")


def _alone(argv):
    """(exit code, stdout bytes) of ``python -m sejoin argv`` in a new process."""
    env = dict(os.environ, PYTHONIOENCODING="utf-8",
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "sejoin"] + argv, env=env,
                          capture_output=True, timeout=120)
    return proc.returncode, proc.stdout


def test_shared_parser_leaks_no_state_between_calls():
    sequence = [
        ["join", "--p", "13", "--q", "8", "--k", "2", "--json"],
        ["join", "--p", "13", "--q", "8", "--k", "2"],
        ["export", "--p", "13", "--q", "8", "--w-bound", "6", "--format", "csv"],
        ["export", "--p", "13", "--q", "8", "--w-bound", "6", "--format", "json"],
        ["join", "--bogus"],
        ["join", "--p", "2", "--q", "1", "--k", "2"],  # DomainError: (2, 1) is not quasi-regular
        ["verify-paper"],
    ]
    shared = [_in_process(cli.main, argv) for argv in sequence]
    assert [code for code, _ in shared] == [0, 0, 0, 0, 2, 2, 0]
    for argv, got in zip(sequence, shared):
        assert got == _alone(argv), argv


def test_parser_is_built_once_for_many_calls(monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    cli.build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for argv in (["join", "--p", "1", "--q", "0"],
                 ["ypq", "--max", "13"],
                 ["join", "--p", "13", "--q", "8", "--k", "2"]):
        assert _in_process(cli.main, argv)[0] == 0
    # the top level and its six subcommands, once each
    assert len(built) == 7
    assert cli.build_parser() is cli.build_parser()


@pytest.mark.parametrize("command", [None] + sorted(FLAGS))
def test_help_names_every_subcommand_and_flag(command):
    argv = ([] if command is None else [command]) + ["--help"]
    code, out = _in_process(cli.main, argv)
    assert code == 0
    text = out.decode("utf-8")
    names = list(FLAGS) if command is None else FLAGS[command]
    for name in names:
        # a whole word: --k must not be found inside --k-list or --k2
        assert re.search(r"(?<![\w-])%s(?![\w-])" % re.escape(name), text), name
    assert "--corrupt" not in text


@pytest.mark.parametrize("command", [None] + sorted(FLAGS))
def test_cached_help_follows_the_terminal_width(command, monkeypatch):
    argv = ([] if command is None else [command]) + ["--help"]
    monkeypatch.setenv("COLUMNS", "200")
    cli.build_parser()  # the shared parser exists before the width changes
    helps = []
    for width in ("60", "120"):
        monkeypatch.setenv("COLUMNS", width)
        cached = _in_process(cli.main, argv)
        fresh = _in_process(cli.build_parser.__wrapped__().parse_args, argv)
        assert cached == fresh
        helps.append(cached[1])
    # argparse wraps at the width read when it formats; verify-paper's one
    # line of help fits in 60 columns
    assert (helps[0] != helps[1]) == (command != "verify-paper")
