"""Every finite value the parser accepts for sigma, lambda, nu and the noise
std either gives finite outputs with nothing on stderr, or exits with its
documented code and one `error:` line: never a traceback or a warning
(the suite turns any warning into an error). A sigma whose square is not
a normal float64 is rejected by the parser, naming the flag. Values are
drawn from the whole positive float64 range, subnormals included;
examples are derandomized so the suite cannot flake.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acdkit.cli import main
from acdkit.io_formats import read_raster, write_raster

from conftest import mixture_cube

EXTREME = settings(max_examples=60, deadline=None, derandomize=True, database=None)
# ten or more examples per parameter and kernel
EXTREME_FIT = settings(EXTREME, max_examples=150)

F64_TINY, F64_MAX = float(np.finfo(np.float64).tiny), float(np.finfo(np.float64).max)

# fit flags per parameter, around the drawn value
FIT_FLAGS = {
    "rbf sigma": lambda v: ["--mode", "kernel", "--kernel", "rbf", "--sigma", v],
    "sam sigma": lambda v: ["--mode", "kernel", "--kernel", "sam", "--sigma", v],
    "rbf lambda": lambda v: ["--mode", "kernel", "--kernel", "rbf", "--lambda", v],
    "linear-kernel lambda": lambda v: ["--mode", "kernel", "--kernel", "linear", "--lambda", v],
    "linear ec nu": lambda v: ["--dist", "ec", "--nu", v],
    "rbf ec nu": lambda v: ["--mode", "kernel", "--kernel", "rbf", "--dist", "ec", "--nu", v],
}


@pytest.fixture(scope="module")
def pair(tmp_path_factory):
    d = tmp_path_factory.mktemp("extreme")
    write_raster(mixture_cube(20, 20, 3, seed=0), d / "x.bin")
    assert main(["simulate", "--input", str(d / "x.bin"), "--out", str(d / "y.bin"),
                 "--labels", str(d / "labels.bin"), "--seed", "3"]) == 0
    return d


def run(argv):
    """main's exit code and everything it wrote to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, err.getvalue()


def assert_one_error_line(err):
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


@EXTREME_FIT
@given(param=st.sampled_from(sorted(FIT_FLAGS)), value=st.floats(5e-324, F64_MAX))
def test_fit_and_score_give_finite_scores_or_one_line(pair, param, value):
    with tempfile.TemporaryDirectory() as tmp:
        model, scores = Path(tmp) / "m", Path(tmp) / "s.bin"
        rc, err = run(["fit", "--x", str(pair / "x.bin"), "--y", str(pair / "y.bin"),
                       "--train-samples", "200", *FIT_FLAGS[param](repr(value)),
                       "--model-out", str(model)])
        if param.endswith("sigma") and not F64_TINY <= value * value <= F64_MAX:
            assert rc == 2 and err.startswith("usage: ") and not model.exists()
            assert err.splitlines()[-1].startswith("acdkit fit: error: argument --sigma: must be")
            return
        if rc == 0:
            assert err == ""
            rc, err = run(["score", "--model", str(model), "--x", str(pair / "x.bin"),
                           "--y", str(pair / "y.bin"), "--out", str(scores)])
        if rc == 0:
            assert err == ""
            assert np.all(np.isfinite(read_raster(scores).data))
        else:
            assert rc in (2, 3)
            assert_one_error_line(err)


@EXTREME
@given(std=st.floats(0.0, F64_MAX))
def test_simulate_gives_a_finite_scene_or_one_line(pair, std):
    # a value beyond float32's range is an I/O failure (exit 1) that writes nothing
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "y.bin"
        rc, err = run(["simulate", "--input", str(pair / "x.bin"), "--out", str(out),
                       "--labels", str(Path(tmp) / "labels.bin"), "--noise-std", repr(std)])
        if rc == 0:
            assert err == ""
            assert np.all(np.isfinite(read_raster(out).data))
        else:
            assert rc == 1 and "beyond float32's range" in err and not out.exists()
            assert_one_error_line(err)
