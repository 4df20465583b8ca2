"""Fuzz the command line: every subcommand, from a small argument grammar.

``main`` must return 0, 1 or 2; the only exception it may raise is
argparse's ``SystemExit(2)`` for a malformed command line; and two runs of
the same argv print the same bytes.  Values stay small enough (p, q, w at
most 10^6, ``--w-bound`` at most 6, ``--digits`` at most 80) that the whole
test runs in a few seconds.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from sejoin.cli import main

# quasi-regular first factors; (91, 85) is the family member k2 = 2
QUASI_REGULAR = [(7, 3), (7, 5), (13, 7), (13, 8), (19, 5), (31, 11), (37, 33), (91, 85)]
BIG = 10**6

pq = st.one_of(
    st.sampled_from(QUASI_REGULAR),
    st.tuples(st.integers(-2, BIG), st.integers(-2, BIG)) | st.just((1, 0)),
)
rational = st.one_of(
    st.builds("{}/{}".format, st.integers(-3, 40), st.integers(0, 10)),
    st.builds(str, st.integers(-3, 40)),
    st.sampled_from(["abc", "", "3/2/1"]),
)
weights = st.builds("{},{}".format, st.integers(-2, BIG), st.integers(-2, BIG))
weight_source = st.one_of(
    st.tuples(st.just("--k"), rational),
    st.tuples(st.just("--w"), st.one_of(weights, st.sampled_from(["34,11", "5,2", "7", "a,b"]))),
    st.tuples(st.just("--k-list"), st.lists(rational, min_size=1, max_size=3).map(",".join)),
    st.tuples(st.just("--w-bound"), st.integers(-1, 6).map(str)),
)
digits = st.one_of(st.just([]), st.integers(-2, 80).map(lambda d: ["--digits", str(d)]))
flag = st.booleans()


@st.composite
def join_flags(draw):
    p, q = draw(pq)
    argv = ["--p", str(p), "--q", str(q)]
    # mostly one weight source, as a valid command line has
    sources = draw(st.lists(weight_source, min_size=1, max_size=1)
                   | st.lists(weight_source, max_size=2))
    argv += [item for source in sources for item in source]
    return argv + draw(digits)


@st.composite
def ypq_argv(draw):
    return ["ypq", "--max", str(draw(st.integers(-2, 40)))] + (["--json"] if draw(flag) else [])


@st.composite
def join_argv(draw):
    return ["join"] + draw(join_flags()) + (["--json"] if draw(flag) else [])


@st.composite
def family_argv(draw):
    argv = ["family"]
    if draw(flag):
        argv += ["--t", str(draw(st.integers(-2, 6)))]
    if draw(flag):
        argv += ["--k2", str(draw(st.integers(-1, 200)))]
    return argv + draw(digits) + (["--json"] if draw(flag) else [])


@st.composite
def verify_argv(draw):
    corrupt = draw(st.sampled_from([None, "A.n", "B.torsion_formula", "family.t3.l", "nope"]))
    return ["verify-paper"] + ([] if corrupt is None else ["--corrupt", corrupt])


@st.composite
def export_argv(draw):
    if draw(flag):
        lo, hi = draw(st.integers(-1, 4)), draw(st.integers(-1, 4))
        argv = ["--family-t", draw(st.sampled_from(["%d:%d" % (lo, hi), str(lo), "x"]))]
        argv += draw(digits)
    else:
        argv = draw(join_flags())
    return ["export", "--format", draw(st.sampled_from(["json", "csv"]))] + argv


json_scalar = st.one_of(
    st.none(), st.booleans(), st.integers(-10, 10**30),
    st.sampled_from(["1/2", "-1/3", "1/0", "abc", "", "7", "2.5"]),
)
json_value = st.recursive(json_scalar, lambda inner: st.lists(inner, max_size=7), max_leaves=12)
record = st.one_of(
    st.fixed_dictionaries({}, optional={"F_coeffs": json_value, "r3": json_value,
                                        "m_vector": json_value}),
    st.fixed_dictionaries({
        "F_coeffs": st.lists(st.sampled_from(["5/144", "4/153", "-1/34", "1", "0"]), max_size=6),
        "r3": st.sampled_from(["1/2", "1/3", "-1", "1", "0"]),
        "m_vector": st.lists(st.integers(-2, 40).map(str), min_size=4, max_size=7),
    }),
)
profile_file = st.one_of(record, st.lists(record, max_size=2), json_value)


@st.composite
def profile_argv(draw):
    argv = ["profile", "--record", json.dumps(draw(profile_file))]
    if draw(flag):
        argv += ["--grid", str(draw(st.integers(-1, 12)))]
    return argv + (["--decimal"] if draw(flag) else [])


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2, (argv, exc.code)
            code = 2
    return code, out.getvalue()


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.one_of(ypq_argv(), join_argv(), family_argv(), verify_argv(),
                 export_argv(), profile_argv()))
def test_cli_exit_codes_and_determinism(argv):
    with tempfile.TemporaryDirectory() as tmp:
        if argv[0] == "profile":
            # the grammar puts the record text where the path goes
            path = os.path.join(tmp, "record.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(argv[2])
            argv = argv[:2] + [path] + argv[3:]
        code, out = _run(argv)
        assert code in (0, 1, 2), argv
        assert _run(argv) == (code, out), argv
