"""Frozen output corpus: CLI output compared byte for byte with tests/data/.

The files were written by this module's ``__main__`` block and are never
regenerated to make a change pass: a kernel or assembly change that alters
one printed digit fails here.  To add a case, append it to CORPUS and run

    PYTHONPATH=src python tests/test_corpus.py

which writes only the files that do not exist yet.
"""

import contextlib
import io
import json
import pathlib

import pytest

from sejoin.cli import main

DATA = pathlib.Path(__file__).parent / "data"

CORPUS = [
    ("verify-paper.txt", ["verify-paper"]),
    ("w-bound-12-13-8.json", ["export", "--p", "13", "--q", "8", "--w-bound", "12",
                              "--format", "json"]),
    ("w-bound-12-13-8.csv", ["export", "--p", "13", "--q", "8", "--w-bound", "12",
                             "--format", "csv"]),
    ("w-bound-12-13-7.json", ["export", "--p", "13", "--q", "7", "--w-bound", "12",
                              "--format", "json"]),
    ("w-bound-12-13-7.csv", ["export", "--p", "13", "--q", "7", "--w-bound", "12",
                             "--format", "csv"]),
    ("family-t-1-10.json", ["export", "--family-t", "1:10", "--format", "json"]),
    ("w-1000000007-3-digits-60.json", ["export", "--p", "13", "--q", "8",
                                       "--w", "1000000007,3", "--digits", "60",
                                       "--format", "json"]),
    ("w-5-2-digits-200.json", ["export", "--p", "13", "--q", "8", "--w", "5,2",
                               "--digits", "200", "--format", "json"]),
    ("ypq-max-60.txt", ["ypq", "--max", "60"]),
    ("ypq-max-60.json", ["ypq", "--max", "60", "--json"]),
    ("join-13-8-w-bound-6.txt", ["join", "--p", "13", "--q", "8", "--w-bound", "6"]),
    ("join-13-8-k-2.json", ["join", "--p", "13", "--q", "8", "--k", "2", "--json"]),
    ("ypq-max-200.json", ["ypq", "--max", "200", "--json"]),
    ("join-7-3-k-list.json", ["join", "--p", "7", "--q", "3", "--k-list", "2,3,3/2,5/3",
                              "--json"]),
    ("profile-13-8-k-2-grid-8.txt", ["profile", "--record", str(DATA / "join-13-8-k-2.json"),
                                     "--grid", "8", "--decimal"]),
    ("family-t-1.json", ["family", "--t", "1", "--json"]),
    ("join-1-0.json", ["join", "--p", "1", "--q", "0", "--json"]),
]


def _run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue().encode("utf-8")


@pytest.mark.parametrize("name,argv", CORPUS, ids=[name for name, _ in CORPUS])
def test_cli_output_matches_corpus(name, argv):
    code, out = _run(argv)
    assert code == 0
    assert out == (DATA / name).read_bytes()


def _intervals(node):
    """Every ``*_interval`` value [lo, hi] in a decoded JSON document."""
    if isinstance(node, dict):
        for key, value in node.items():
            if key.endswith("_interval") and value is not None:
                yield value
            else:
                yield from _intervals(value)
    elif isinstance(node, list):
        for value in node:
            yield from _intervals(value)


def test_corpus_intervals_are_one_unit_cells():
    pairs = [pair for path in sorted(DATA.glob("*.json"))
             for pair in _intervals(json.loads(path.read_text(encoding="utf-8")))]
    assert len(pairs) == 184
    wide = []
    for lo, hi in pairs:
        digits = len(lo.split(".")[1])
        if len(hi.split(".")[1]) != digits or \
                int(hi.replace(".", "")) - int(lo.replace(".", "")) != 1:
            wide.append((lo, hi))
    assert wide == []


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    for name, argv in CORPUS:
        path = DATA / name
        if not path.exists():
            code, out = _run(argv)
            if code != 0:
                raise SystemExit("%s exited with %d" % (name, code))
            path.write_bytes(out)
            print("wrote %s (%d bytes)" % (path, len(out)))
