"""Property tests: the .qls round trip and the Jacobi singular values."""

import os
import string
import tempfile

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from qlskit import linalg as la, problems  # noqa: E402

U = np.finfo(float).eps / 2

# Every finite binary64 value, with the edges drawn more often:
# signed zeros, subnormals, the smallest normal and values near 1e+-300.
EDGES = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300,
         -1e-300, 1e300, -1e300, 1.7976931348623157e308)
FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from(EDGES))
LABELS = st.text(string.ascii_letters + string.digits + " -_.:",
                 max_size=24).filter(lambda s: s == s.strip())


@st.composite
def qls_problems(draw):
    n = draw(st.integers(1, 4))
    m = draw(st.integers(n, 6))
    a = draw(hnp.arrays(float, (m, n), elements=FINITE))
    b = draw(hnp.arrays(float, m, elements=FINITE))
    c = draw(hnp.arrays(float, n, elements=FINITE))
    x = draw(st.none() | hnp.arrays(float, n, elements=FINITE))
    return problems.QlsProblem(a, b, c, x_exact=x, label=draw(LABELS))


def same_bits(u, v):
    return u.shape == v.shape and u.tobytes() == v.tobytes()


@settings(max_examples=60, deadline=None)
@given(qls_problems())
def test_save_load_round_trips_bitwise(p):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "p.qls")
        problems.save_problem(p, path)
        q = problems.load_problem(path, verify=False)
    assert same_bits(p.a, q.a)
    assert same_bits(p.b, q.b)
    assert same_bits(p.c, q.c)
    if p.x_exact is None:
        assert q.x_exact is None
    else:
        assert same_bits(p.x_exact, q.x_exact)
    assert q.label == p.label


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.data())
def test_svd_agrees_with_lapack(m, n, data):
    a = data.draw(hnp.arrays(float, (m, n), elements=st.floats(-1e3, 1e3)))
    s = la.svd(a)
    want = np.linalg.svd(a, compute_uv=False)
    assert s.shape == want.shape
    assert np.all(np.diff(s) <= 0.0)
    assert np.all(np.abs(s - want) <= 4 * max(m, n) * U * want[0])
