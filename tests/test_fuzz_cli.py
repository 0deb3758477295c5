"""A boundary fuzzer for `fedpex bounds` and `fedpex run` (ROADMAP item 12).

Instance documents of extreme finite numbers (subnormals, -0.0, +-1e308,
the largest float, 1e-170, the largest admitted mean and every power of ten
between) among ordinary ones, duplicate and collinear contexts, and the
flags of both commands for both families, run in-process through `main`.
Every case ends in one of three ways: exit 0 with finite output; exit 2
with one `error:` line, nothing on stdout and no file; or exit 1 with one
`error:` line. No exception escapes `main`, and no
RuntimeWarning or DeprecationWarning is raised. `bounds` draws no reward, so
it answers at the largest float as sigma whenever it answers at the drawn
sigma, and refuses alike (with --lambda given, for a linear instance, whose
default ridge reads sigma).
"""

import contextlib
import csv
import io
import json
import math
import os
import re
import sys
import tempfile
import warnings

from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from fedpex.cli import main
from fedpex.core import MAX_ABS_MEAN

# fixed before the first run; never tuned to hide a find
SETTINGS = settings(
    max_examples=150,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)

BIG = sys.float_info.max
TINY = [0.0, -0.0, 5e-324, -5e-324, sys.float_info.min, 1e-170, -1e-170, 1e-12, 1e-9, -1e-9, 1e-6]
HUGE = [1e308, -1e308, BIG, -BIG, MAX_ABS_MEAN, -MAX_ABS_MEAN]


def scales(lo, hi, signed=False):
    """10^e for integers e in [lo, hi], every scale alike, of either sign if `signed`."""
    return st.sampled_from([sign * 10.0**e for e in range(lo, hi + 1) for sign in ((1.0, -1.0) if signed else (1.0,))])


# mostly values an instance admits, extreme ones among them; a MAB mean is
# now and then any finite float, and out-of-range contexts have tests of their own
ordinary, anything = st.floats(-1, 1), st.floats(allow_nan=False, allow_infinity=False)
mean = st.one_of(ordinary, ordinary, st.sampled_from(TINY + HUGE), anything, scales(-323, 308, True))
entry = st.one_of(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5), st.sampled_from(TINY), scales(-323, -1, True))
# sigma at the scales where its checks and the default ridge change: the ridge,
# about sigma^2, is subnormal below 1e-154 and 0 below 1e-162, and 16 sigma
# times 2000 pulls passes the largest float near 5.6e303
sigma = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1e-170, 1e-158, 1e-140, 1e-20, 1e-9, 0.3, 1.0, 1e150, 1e290,
                                   5e303, 1e308, BIG]), st.floats(0, 10), scales(-323, 308))


@st.composite
def mab_document(draw):
    means = draw(st.lists(mean, min_size=2, max_size=6, unique=True))
    return {"type": "mab", "means": means, "sigma": draw(sigma)}


@st.composite
def linear_document(draw):
    # entries of at most 1/2 keep a norm of at most 1 up to d = 4
    dim, k = draw(st.integers(1, 3)), draw(st.integers(2, 5))
    rows = []
    for _ in range(k):
        how = draw(st.sampled_from(["new", "new", "duplicate", "collinear"] if rows else ["new"]))
        if how == "new":
            rows.append(draw(st.lists(entry, min_size=dim, max_size=dim)))
        else:
            row, scale = draw(st.sampled_from(rows)), 1.0 if how == "duplicate" else draw(entry)
            rows.append([scale * x for x in row])
    theta = draw(st.lists(st.one_of(st.floats(-0.5, 0.5), entry), min_size=dim, max_size=dim))
    return {"type": "linear", "dim": dim, "contexts": rows, "theta": theta, "sigma": draw(sigma)}


def flags(options):
    """Up to three of `options` (flag -> values), each with one of its values."""
    pairs = [(name, str(value)) for name in sorted(options) for value in options[name]]
    chosen = st.lists(st.sampled_from(pairs), max_size=3, unique_by=lambda pair: pair[0])
    return chosen.map(lambda chosen: [word for pair in chosen for word in pair])


GAMMA = [5e-324, 1e-300, 1e-9, 0.01, 0.5, 1, 1e17, 1e300]
SHARED = {
    "--epsilon": [0, 1e-200, 1e-9, 0.05, 0.5, 0.999999],
    "--delta": [1e-300, 1e-9, 0.05, 0.5, 0.999999],
    "--gamma": GAMMA,
    "--gamma1": GAMMA,
    "--gamma2": GAMMA,
    "--lambda": [5e-324, 1e-300, 1e-9, 0.5, 1, 1e300],
}
BOUNDS = {**SHARED, "--agents": [1, 2, 3, 10, 1000, 2**32], "--tau": [1, 2, 10**4, 10**7, 10**300, 10**400]}
# a round cap of at most 2000 keeps every run short
RUN = {
    **SHARED,
    "--agents": [1, 2, 3, 10, 1000],
    "--arm-select": ["lp", "greedy"],
    "--activation": ["uniform-random", "round-robin"],
    "--episode-len": [1, 2, 10, 100],
    "--reps": [1, 2],
    "--seed-base": [0, 1, 7],
}
MAX_ROUNDS = [2000, 500, 50, 6, 1]
ALGOS = {"mab": ["famabpe", "ugapec-single", "ugapec-sync"], "linear": ["falinpe", "lingape-single", "lingape-sync"]}


def finite_json(text):
    def refuse(constant):
        raise AssertionError(f"non-finite {constant} in the output")

    return json.loads(text, parse_constant=refuse)


def call(args, audit=False):
    """(exit code, stdout, stderr lines) of main(args), with FEDPEX_AUDIT set
    if `audit`; asserts that no RuntimeWarning or DeprecationWarning was raised."""
    out, err = io.StringIO(), io.StringIO()
    before = os.environ.pop("FEDPEX_AUDIT", None)
    if audit:
        os.environ["FEDPEX_AUDIT"] = "1"
    try:
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main(args)
    finally:
        os.environ.pop("FEDPEX_AUDIT", None)
        if before is not None:
            os.environ["FEDPEX_AUDIT"] = before
    event(f"{args[0]} exit {code}")  # shown by pytest --hypothesis-show-statistics
    bad = [w for w in caught if issubclass(w.category, (RuntimeWarning, DeprecationWarning))]
    assert not bad, [str(w.message) for w in bad]
    return code, out.getvalue(), err.getvalue().strip().splitlines()


def assert_outcome(code, stdout, lines, out_path):
    """One of the three endings; returns whether the command answered."""
    if code == 0:
        return True
    assert code in (1, 2), code
    assert len(lines) == 1 and lines[0].startswith("error:"), lines
    if code == 2:
        assert stdout == "" and not os.path.exists(out_path)
    return False


class TestBoundaryFuzz:
    @SETTINGS
    @given(st.one_of(mab_document(), linear_document()), flags(BOUNDS), st.booleans())
    def test_bounds(self, doc, extra, to_file):
        with tempfile.TemporaryDirectory() as tmp:
            inst, out = os.path.join(tmp, "inst.json"), os.path.join(tmp, "bounds.json")

            def bounds(document):
                with open(inst, "w", encoding="utf-8") as fh:
                    json.dump(document, fh)
                args = ["bounds", "--instance", inst, *extra] + (["--out", out] if to_file else [])
                code, stdout, lines = call(args)
                if assert_outcome(code, stdout, lines, out):
                    if to_file:
                        assert stdout == ""
                        with open(out, encoding="utf-8") as fh:
                            stdout = fh.read()
                        os.remove(out)
                    report = finite_json(stdout)
                    assert report["complexity"] == "+inf" or math.isfinite(report["complexity"])
                return code

            code = bounds(doc)
            # sigma scales the MAB complexity and sets a linear default ridge, no more:
            # the largest float answers as the drawn sigma does
            if doc["sigma"] >= 0 and (doc["type"] == "mab" or "--lambda" in extra):
                assert bounds({**doc, "sigma": BIG}) == code, doc

    @SETTINGS
    # a linear run factors a covariance and solves the LP: two documents in three are linear
    @given(st.one_of(mab_document(), linear_document(), linear_document()), flags(RUN), st.sampled_from(MAX_ROUNDS),
           st.data())
    def test_run(self, doc, extra, max_rounds, data):
        algo = data.draw(st.sampled_from(ALGOS[doc["type"]]))
        audit = data.draw(st.booleans())
        if algo.endswith("-single"):  # a message every pull: a shorter cap keeps the run short
            max_rounds = min(max_rounds, 500)
        with tempfile.TemporaryDirectory() as tmp:
            inst, out = os.path.join(tmp, "inst.json"), os.path.join(tmp, "res.csv")
            with open(inst, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            args = ["run", "--algo", algo, "--instance", inst, "--max-rounds", str(max_rounds), "--out", out, *extra]
            code, stdout, lines = call(args, audit)
            if assert_outcome(code, stdout, lines, out):
                # the summary's means: "... mean tau=... comm=... switch=... correct=..."
                assert all(math.isfinite(float(v)) for v in re.findall(r"=(\S+)", stdout)), stdout
                with open(out, newline="", encoding="utf-8") as fh:
                    rows = list(csv.reader(fh))
                assert len(rows) > 1
                for row in rows[1:]:
                    # seed, tau, the costs and the arms are integers, then the runtime in ms
                    assert all(int(row[i]) >= 0 for i in (2, 3, 4, 5, 6, 8, 9)) and math.isfinite(float(row[11])), row
                    assert row[7] in ("True", "False") and row[10] in ("True", "False"), row
