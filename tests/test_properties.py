"""Property tests (hypothesis) at the instance-file boundary: instance JSON
round-trips bit-exactly, and `fedpex run --instance` turns every malformed
document into exit code 2 with a single `error:` line."""

import contextlib
import io
import json
import math
import os
import tempfile
import warnings

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from fedpex.cli import main
from fedpex.core import MAX_ABS_MEAN, LinearInstance, MabInstance, instance_from_json, instance_to_json

SETTINGS = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])

finite = st.floats(allow_nan=False, allow_infinity=False)
# the means an instance accepts; larger ones make the estimates overflow
mab_mean = st.floats(min_value=-MAX_ABS_MEAN, max_value=MAX_ABS_MEAN)


def bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


@st.composite
def mab_instances(draw):
    means = draw(st.lists(mab_mean, min_size=2, max_size=8))
    assume(means.count(max(means)) == 1)
    sigma = draw(st.floats(min_value=0.0, allow_nan=False, allow_infinity=False))
    return MabInstance(means=tuple(means), sigma=sigma)


@st.composite
def linear_instances(draw):
    dim = draw(st.integers(1, 4))
    k = draw(st.integers(2, 6))
    # entries bounded by 1/2 keep every norm at most 1 for d <= 4
    entry = st.floats(-0.5, 0.5)
    contexts = np.array(draw(st.lists(st.lists(entry, min_size=dim, max_size=dim), min_size=k, max_size=k)))
    theta = np.array(draw(st.lists(entry, min_size=dim, max_size=dim)))
    rewards = contexts @ theta
    assume(int(np.sum(rewards == rewards.max())) == 1)
    sigma = draw(st.floats(min_value=0.0, max_value=1e300))
    return LinearInstance(contexts=contexts, theta=theta, sigma=sigma)


class TestInstanceRoundTrip:
    @SETTINGS
    @given(mab_instances())
    def test_mab_bit_exact(self, inst):
        again = instance_from_json(instance_to_json(inst))
        assert bits(again.means) == bits(inst.means)
        assert bits(again.sigma) == bits(inst.sigma)

    @SETTINGS
    @given(linear_instances())
    def test_linear_bit_exact(self, inst):
        again = instance_from_json(instance_to_json(inst))
        assert again.contexts.shape == inst.contexts.shape
        assert bits(again.contexts) == bits(inst.contexts)
        assert bits(again.theta) == bits(inst.theta)
        assert bits(again.sigma) == bits(inst.sigma)


# ---------------------------------------------------------------------------
# Malformed documents: a valid document with one change that makes it invalid
# ---------------------------------------------------------------------------

VALID = {
    "mab": {"type": "mab", "means": [0.9, 0.5, 0.1], "sigma": 0.3},
    "linear": {
        "type": "linear",
        "dim": 2,
        "contexts": [[0.8, 0.1], [0.1, 0.6], [-0.3, 0.2]],
        "theta": [0.6, 0.3],
        "sigma": 0.3,
    },
}
# The JSON nesting depth of each numeric field: 0 for a number, 1 for an
# array of numbers, 2 for an array of arrays.
DEPTH = {"means": 1, "sigma": 0, "dim": 0, "contexts": 2, "theta": 1}

scalar_junk = st.one_of(st.text(max_size=5), st.booleans(), st.none(), st.just({}))
non_finite = st.sampled_from([math.nan, math.inf, -math.inf])


def wrong_type(depth):
    """A JSON value that is not a number array of the given depth."""
    if depth == 0:
        return st.one_of(scalar_junk, st.lists(finite, max_size=3))
    inner = wrong_type(depth - 1)
    return st.one_of(scalar_junk, finite, st.lists(inner, min_size=1, max_size=3))


def numeric_paths(doc):
    """(field, index path) of every number in a document."""
    for field, depth in DEPTH.items():
        if field not in doc or field == "dim":
            continue
        if depth == 0:
            yield field, ()
        elif depth == 1:
            yield from ((field, (i,)) for i in range(len(doc[field])))
        else:
            yield from ((field, (i, j)) for i, row in enumerate(doc[field]) for j in range(len(row)))


def set_at(doc, field, path, value):
    if not path:
        doc[field] = value
        return
    target = doc[field]
    for i in path[:-1]:
        target = target[i]
    target[path[-1]] = value


@st.composite
def malformed_documents(draw):
    """(text, claimed type) of a document the instance boundary must reject."""
    kind = draw(st.sampled_from(["mab", "linear"]))
    doc = json.loads(json.dumps(VALID[kind]))
    fields = [f for f in doc if f != "type"]
    changes = ["drop", "retype", "non-finite", "negative-sigma", "tie", "bad-type", "truncate", "not-object"]
    changes += ["one-arm"] + (["dim", "ragged", "theta-length", "long-context"] if kind == "linear" else ["huge-mean"])
    change = draw(st.sampled_from(changes))
    if change == "drop":
        del doc[draw(st.sampled_from(fields + ["type"]))]
    elif change == "retype":
        field = draw(st.sampled_from(fields))
        doc[field] = draw(wrong_type(DEPTH[field]))
    elif change == "non-finite":
        field, path = draw(st.sampled_from(list(numeric_paths(doc))))
        set_at(doc, field, path, draw(non_finite))
    elif change == "negative-sigma":
        doc["sigma"] = -draw(st.floats(min_value=1e-300, max_value=1e300))
    elif change == "tie":
        if kind == "mab":
            doc["means"][1] = doc["means"][0]
        else:
            doc["theta"] = [0.0] * doc["dim"]  # every arm's reward is 0
    elif change == "bad-type":
        doc["type"] = draw(st.one_of(st.text(max_size=6).filter(lambda t: t not in VALID), scalar_junk))
    elif change == "dim":
        doc["dim"] = draw(st.integers(-3, 9).filter(lambda d: d != 2))
    elif change == "ragged":
        doc["contexts"][draw(st.integers(0, 2))].pop()
    elif change == "theta-length":
        doc["theta"] = doc["theta"] + [0.0] if draw(st.booleans()) else doc["theta"][:1]
    elif change == "long-context":
        doc["contexts"][draw(st.integers(0, 2))][draw(st.integers(0, 1))] = draw(st.floats(1.01, 1e300))
    elif change == "huge-mean":
        huge = draw(st.floats(min_value=math.nextafter(MAX_ABS_MEAN, math.inf), allow_infinity=False))
        doc["means"][draw(st.integers(0, 1))] = huge if draw(st.booleans()) else -huge
    elif change == "one-arm":
        field = "means" if kind == "mab" else "contexts"
        doc[field] = doc[field][:1]
    text = json.dumps(doc)
    if change == "truncate":
        text = text[: draw(st.integers(0, len(text) - 1))]
    elif change == "not-object":
        text = json.dumps(draw(st.one_of(finite, st.text(max_size=5), st.lists(finite), st.none())))
    return text, kind


class TestMalformedInstanceExit2:
    @SETTINGS
    @given(malformed_documents())
    def test_one_error_line_and_no_output(self, case):
        text, kind = case
        with tempfile.TemporaryDirectory() as tmp:
            inst = os.path.join(tmp, "inst.json")
            out = os.path.join(tmp, "res.csv")
            with open(inst, "w", encoding="utf-8") as fh:
                fh.write(text)
            algo = "famabpe" if kind == "mab" else "falinpe"
            err = io.StringIO()
            # a round cap keeps a regression that accepts the file from spinning
            args = ["run", "--algo", algo, "--instance", inst, "--max-rounds", "2000", "--out", out]
            # a warning would be one more stderr line from the command line
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                    code = main(args)
            lines = err.getvalue().strip().splitlines()
            assert not caught, [str(w.message) for w in caught]
            assert code == 2, (text, err.getvalue())
            assert len(lines) == 1 and lines[0].startswith("error:"), err.getvalue()
            assert not os.path.exists(out)
