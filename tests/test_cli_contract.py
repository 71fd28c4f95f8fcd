"""The CLI's exit-code contract on arbitrary small input documents and on
flag values at the edge of the float range.

Whatever the file holds, `main` returns 0, 1 or 2 and lets no exception
escape.  A report on stdout is JSON with sorted keys whose `pass` agrees
with the exit code; without a report, stderr carries an error line.
"""

import contextlib
import io
import json
import math
import os
import tempfile
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dilationkit.cli import main

reals = st.one_of(
    st.sampled_from([0, 0.0, -0.0, 1, -2, 0.5, 1e308, -1e308, 1e-308, 5e-324, 1e154]),
    st.floats(allow_nan=False, allow_infinity=False),
)
junk = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=2),
    st.just({}),
    st.lists(reals, max_size=3),
    st.just(10**400),
)
# mostly real or [re, im] entries, now and then something else
entries = st.integers(0, 9).flatmap(
    lambda k: junk if k == 0 else reals if k % 2 else st.lists(reals, min_size=2, max_size=2)
)


def spoiled(doc):
    """The document, it with one key dropped or replaced by junk, or junk."""
    keys = sorted(doc)
    return st.one_of(
        st.just(doc),
        st.sampled_from(keys).map(lambda key: {k: v for k, v in doc.items() if k != key}),
        st.tuples(st.sampled_from(keys), junk).map(lambda kv: {**doc, kv[0]: kv[1]}),
        junk,
    )


def vector(dim):
    return st.lists(entries, min_size=dim, max_size=dim)


def rows(count, dim):
    return st.lists(vector(dim), min_size=count, max_size=count)


@st.composite
def frame_docs(draw):
    dim = draw(st.integers(1, 3))
    return draw(spoiled({"dim": dim, "vectors": draw(rows(draw(st.integers(1, 3)), dim))}))


@st.composite
def ovm_docs(draw):
    dim_in, dim_out = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    atoms = draw(st.lists(rows(dim_out, dim_in), min_size=1, max_size=3))
    return draw(spoiled({"dim_in": dim_in, "dim_out": dim_out, "atoms": atoms}))


@st.composite
def framing_docs(draw):
    dim = draw(st.integers(1, 3))
    pairs = [
        draw(spoiled({"x": x, "y": y}))
        for x, y in draw(st.lists(st.tuples(vector(dim), vector(dim)), min_size=1, max_size=3))
    ]
    return draw(spoiled({"dim": dim, "pairs": pairs}))


invocations = st.one_of(
    st.tuples(
        st.sampled_from(
            [
                ["frame-analyze"],
                ["frame-analyze", "--dual"],
                ["frame-analyze", "--dilate"],
                ["frame-analyze", "--dual", "--dilate"],
            ]
        ),
        frame_docs(),
    ),
    st.tuples(
        st.sampled_from([["ovm-dilate", "--block"], ["ovm-dilate", "--naimark"]]), ovm_docs()
    ),
    st.tuples(st.just(["framing-rescale"]), framing_docs()),
)


def sorted_object(pairs):
    keys = [key for key, _ in pairs]
    assert keys == sorted(keys), keys
    return dict(pairs)


def reject_constant(name):
    raise AssertionError(f"{name} in a report")


def check_contract(argv, doc):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, path])
    assert code in (0, 1, 2)
    if out.getvalue():
        report = json.loads(
            out.getvalue(), object_pairs_hook=sorted_object, parse_constant=reject_constant
        )
        assert report["pass"] is (code == 0)
    else:
        assert code != 0
        assert any(line.startswith("error: ") for line in err.getvalue().splitlines())
    return code, out.getvalue(), err.getvalue()


# (argv, document, the scale's factor as the message prints it)
NEAR_OVERFLOW = [
    (["ovm-dilate", "--block"], {"dim_in": 2, "dim_out": 2, "atoms": [[[1e308] * 2] * 2]}, "2"),
    (["frame-analyze"], {"dim": 1, "vectors": [[1e308], [1e308]]}, "1.41421"),
    (["ovm-dilate", "--naimark"],
     {"dim_in": 2, "dim_out": 2, "atoms": [[[1e154, 0], [0, 1e154]]] * 2}, "4"),
    (["frame-analyze", "--dual"], {"dim": 2, "vectors": [[1e155, 1e155], [1e155, 0]]}, "2"),
    (["framing-rescale"], {"dim": 2, "pairs": [{"x": [1e154, 0], "y": [0, 1.0]},
                                               {"x": [0, 1.0], "y": [1.0, 0]}]}, "2"),
]


@given(invocations)
@example(NEAR_OVERFLOW[0][:2])
@example(NEAR_OVERFLOW[1][:2])
@settings(max_examples=100, deadline=None, derandomize=True)
def test_every_document_keeps_the_exit_code_contract(invocation):
    check_contract(*invocation)


@pytest.mark.parametrize("argv, doc, factor", NEAR_OVERFLOW)
def test_near_overflow_input_exits_1_naming_file_scale_and_limit(argv, doc, factor):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = check_contract(argv, doc)
    assert code == 1 and not out
    assert err.startswith("error: ") and "input.json: input scale " in err
    assert f"= {factor} * " in err and "exceeds the limit 2^511 = 6.704e+153" in err


# 0.999 of the scale limit 2^511
EDGE = 0.999 * 2.0**511


@pytest.mark.parametrize(
    "argv, doc",
    [
        # one rank-one positive atom, n*d = 2
        *[(["ovm-dilate", mode], {"dim_in": 2, "dim_out": 2, "atoms": [[[EDGE / 2] * 2] * 2]})
          for mode in ("--block", "--naimark")],
        # three 2x3 atoms, n*d = 9
        (["ovm-dilate", "--block"], {"dim_in": 3, "dim_out": 2, "atoms": [
            [[-EDGE / 9, EDGE / 9, 0.5], [EDGE / 9, 1.0, 0.0]]] * 3}),
        # N*d = 4
        (["frame-analyze", "--dual"], {"dim": 2, "vectors": [[EDGE / 2] * 2, [EDGE / 2, 0.0]]}),
        (["framing-rescale"], {"dim": 2, "pairs": [
            {"x": [EDGE / 2, 0.0], "y": [0.0, EDGE / 2]},
            {"x": [EDGE / 2] * 2, "y": [EDGE / 2, -EDGE / 2]}]}),
    ],
)
def test_input_just_under_the_limit_runs_without_a_warning(argv, doc):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = check_contract(argv, doc)
    # a report is written; its absolute thresholds may fail at this scale
    assert out and not err


@pytest.mark.parametrize(
    "pairs, message",
    [
        # ||y|| / ||x|| = 1e313 overflows
        ([{"x": [1e-160], "y": [1e153]}], "leaves the float range at indices [0]"),
        # ||y|| underflows to 0 although y is not zero
        ([{"x": [1e153], "y": [1e-175]}], "leaves the float range at indices [0]"),
        # only an exactly zero side is a zero pair
        ([{"x": [1e153], "y": [1e-175]}, {"x": [0.0], "y": [1.0]}],
         "ZeroPair: pairs with zero norm product at indices [1]"),
    ],
)
def test_rescale_outside_the_float_range_exits_1_naming_the_pair(pairs, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = check_contract(["framing-rescale"], {"dim": 1, "pairs": pairs})
    assert code == 1 and not out
    assert message in err


def test_dilating_a_frame_that_does_not_span_exits_1_without_a_warning():
    # tol = 2 admits ||S - I|| = 1, so the QR's zero diagonal is reached
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = check_contract(
            ["frame-analyze", "--dilate", "--tol", "2"], {"dim": 2, "vectors": [[1, 0], [0, 0]]}
        )
    assert code == 1 and not out
    assert err == "error: NotParseval: frame does not span: R of its QR has a zero diagonal entry\n"


def run_flags(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
@pytest.mark.parametrize(
    "argv, flag",
    [
        (["frame-analyze", "input.json", "--tol"], "--tol"),
        (["ovm-dilate", "input.json", "--block", "--tol"], "--tol"),
        (["framing-rescale", "input.json", "--tol"], "--tol"),
        (["chl5", "--nmax", "2", "--p"], "--p"),
    ],
)
def test_non_finite_flags_exit_2_naming_the_flag(argv, flag, value):
    # "--tol=-inf": a bare "-inf" after the flag would parse as an option
    code, out, err = run_flags(argv[:-1] + [f"{argv[-1]}={value}"])
    assert code == 2 and not out
    assert f"argument {flag}: must be a finite number" in err
    assert "_finite_float" not in err


def test_removed_max_atoms_flag_exits_2_as_unrecognized(tmp_path):
    path = tmp_path / "povm.json"
    path.write_text(json.dumps({"dim_in": 1, "dim_out": 1, "atoms": [[[1.0]]]}), encoding="utf-8")
    code, out, err = run_flags(["ovm-dilate", str(path), "--block", "--max-atoms", "8"])
    assert code == 2 and not out
    assert "unrecognized arguments: --max-atoms 8" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "p, nmax",
    [(1.0029, 6), (296.0, 11), (300.0, 11), (309.0, 10), (343.0, 6), (1e308, 6), (1e308, 1)],
)
def test_chl5_exponents_beyond_the_float_range_exit_2_naming_p(p, nmax):
    code, out, err = run_flags(["chl5", "--p", repr(p), "--nmax", str(nmax)])
    assert code == 2 and not out
    assert err.startswith("error: --p ")


@pytest.mark.parametrize("p, nmax", [(1.00294, 11), (292.5, 11), (304.9, 10), (341.9, 7)])
def test_chl5_exponents_at_the_float_range_edge_give_finite_bounds(p, nmax):
    code, out, err = run_flags(["chl5", "--p", repr(p), "--nmax", str(nmax)])
    assert code == 0 and not err
    levels = json.loads(out, parse_constant=reject_constant)["artifacts"]["levels"]
    assert len(levels) == nmax
    assert all(math.isfinite(v) for level in levels.values() for v in level.values())
