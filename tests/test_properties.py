"""Property tests: the .qls round trip, the singular values against a
60-digit reference, the direct solvers against exact scalings, every
solver against the rational oracle, and config documents drawn from the
config schema."""

import copy
import json
import math
import os
import string
import tempfile
from fractions import Fraction

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from qlskit import bench, direct, iterative, linalg as la, problems  # noqa: E402
from qlskit.errors import ConfigError  # noqa: E402
from helpers import random_integer_problem, rational_solution  # noqa: E402

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


# Bit patterns of finite binary64 values: sign, biased exponent up to
# 2046 and fraction drawn apart, with edges drawn more often: +-0,
# +-5e-324, +-2^-1022 and the largest normals.
EDGE_BITS = [int(v) for v in np.array(
    [0.0, -0.0, 5e-324, -5e-324, 2.0 ** -1022, -(2.0 ** -1022),
     1.7976931348623157e308, -1.7976931348623157e308]).view(np.uint64)]
FINITE_BITS = st.one_of(st.sampled_from(EDGE_BITS), st.builds(
    lambda sign, exp, frac: sign << 63 | exp << 52 | frac,
    st.integers(0, 1), st.integers(0, 2046), st.integers(0, 2 ** 52 - 1)))
# The edges, and exponents at each change in their number of digits.
EDGE_EXAMPLE = np.concatenate([np.array(EDGE_BITS, dtype=np.uint64), np.ldexp(
    -1.5, [-1022, -1000, -999, -100, -99, -10, -9, -1, 0, 1, 9, 10, 99, 100,
           999, 1000, 1023]).view(np.uint64)])


def hex_block(name, arr):
    """The block as float.hex text: the reference for problems' writer."""
    rows = arr.reshape(len(arr), -1).tolist()
    return f"{name}\n{len(rows)} {len(rows[0])}\n" + "".join(
        " ".join(map(float.hex, row)) + "\n" for row in rows)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 24).flatmap(lambda m: hnp.arrays(
    np.uint64, st.tuples(st.just(m), st.integers(1, min(m, 8))),
    elements=FINITE_BITS)))
@example(EDGE_EXAMPLE.reshape(25, 1))
@example(EDGE_EXAMPLE.reshape(5, 5))
def test_written_text_is_float_hex_and_round_trips_bitwise(bits):
    # A drawn m x n matrix, its first column as b and its first row as c
    # and x: the file is the float.hex text of each block (each
    # _write_block), and reads back bit for bit.
    a = bits.view(float)
    p = problems.QlsProblem(a, a[:, 0], a[0], x_exact=a[0], label="bits")
    blocks = {"A": p.a, "b": p.b, "c": p.c, "x": p.x_exact}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "p.qls")
        problems.save_problem(p, path)
        with open(path) as fh:
            assert fh.read() == "qls-problem bits\n" + "".join(
                hex_block(name, v) for name, v in blocks.items())
        q = problems.load_problem(path, verify=False)
    for u, v in ((p.a, q.a), (p.b, q.b), (p.c, q.c), (p.x_exact, q.x_exact)):
        assert same_bits(u, v)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.data())
def test_svd_agrees_with_mpmath(m, n, data):
    # An independent reference: mpmath's SVD of the same matrix, carried
    # to 60 digits and rounded once.
    mpmath = pytest.importorskip("mpmath")
    a = data.draw(hnp.arrays(float, (m, n), elements=st.floats(-1e3, 1e3)))
    s = la.svd(a)
    with mpmath.workdps(60):
        ref = mpmath.svd_r(mpmath.matrix(a.tolist()), compute_uv=False)
        want = np.sort([float(v) for v in ref])[::-1]
    assert s.shape == want.shape
    assert np.all(np.diff(s) <= 0.0)
    assert np.all(np.abs(s - want) <= 4 * max(m, n) * U * want[0])


# Small full-rank integer problems (entries in [-9, 9], kappa <= 1e4),
# each from a drawn seed.
INTEGER_PROBLEMS = st.builds(
    lambda seed, n, extra: random_integer_problem(
        np.random.default_rng(seed), n + extra, n, kappa_max=1e4),
    st.integers(0, 2 ** 32 - 1), st.integers(1, 4), st.integers(0, 3))
EPS = 2.0 ** -10


def _sm_base(p):
    return direct.solve_sm(p, 0.0)


def _sm_eps(p):
    return direct.solve_sm(p, EPS)


def _qr_eps(p):
    return direct.solve_qr_eps(p, EPS)


# Room for every Krylov run on these draws to stall at its floor and
# return its best iterate: on 5000 draws no run reached the cap, and no
# best iterate came later than step 82.
FLOOR = iterative.IterationControl(tol=1e-30, max_iterations=200, patience=50)


def _cg(p):
    return iterative.cg_base(p, FLOOR).x


def _cgls_i(p):
    return iterative.cgls_i(p, FLOOR).x


def _cgls_eps(p):
    return iterative.cgls_eps(p, EPS, FLOOR).x


def _minres(p):
    return iterative.minres_augmented(p, FLOOR).x


@settings(max_examples=40, deadline=None)
@given(INTEGER_PROBLEMS, st.integers(-400, 400), st.integers(-400, 400))
def test_direct_solvers_are_exactly_equivariant(p, alpha, beta):
    # A by 2^alpha, b by 2^beta and c by 2^(alpha+beta) is exact and maps
    # x to 2^(beta-alpha) x; every entry stays normal for these draws.
    # QR, SM at eps = 0 and AUG give exactly that x.  QREPS and SM at
    # eps > 0 keep the eps row's right-hand side 1/eps, so eps has the
    # units of b and only beta = 0 is exact for them.
    def scaled(a, b):
        return problems.QlsProblem(np.ldexp(p.a, a), np.ldexp(p.b, b),
                                   np.ldexp(p.c, a + b))

    for solve, beta_ok in ((direct.solve_qr, True), (_sm_base, True),
                           (direct.solve_aug, True), (_qr_eps, False),
                           (_sm_eps, False)):
        b = beta if beta_ok else 0
        want = np.ldexp(solve(p), b - alpha)
        assert np.array_equal(solve(scaled(alpha, b)), want), solve.__name__


@settings(max_examples=40, deadline=None)
@given(INTEGER_PROBLEMS)
def test_solvers_meet_the_rational_oracle(p):
    # Each solver's error against the exact solution x* of its own system
    # (the eps-shifted one for QREPS, SM at eps > 0 and CGLSEPS) is within
    # 1e3 u kappa^2 (||x*|| + ||b|| / ||A|| + ||c|| / ||A||^2), the first-
    # order bound in the data's units.  The data terms matter where
    # A^T b + c cancels: these draws include x* = 0.
    na = p.sigma_max()
    scale = 1e3 * U * p.kappa() ** 2
    for solve, eps in ((direct.solve_qr, None), (_sm_base, None),
                       (direct.solve_aug, None), (_qr_eps, EPS),
                       (_sm_eps, EPS), (_cg, None), (_cgls_i, None),
                       (_cgls_eps, EPS), (_minres, None)):
        exact = rational_solution(p.a, p.b, p.c, eps=eps)
        x = [Fraction(float(v)) for v in solve(p)]
        err = math.sqrt(float(sum((u - v) ** 2 for u, v in zip(x, exact))))
        size = (math.sqrt(float(sum(v * v for v in exact)))
                + np.linalg.norm(p.b) / na + np.linalg.norm(p.c) / na ** 2)
        assert err <= scale * size, solve.__name__


# Values within each (bound, type) of the config schema, kept small:
# only parse_config runs on them.
EPS_BOUND = bench.CONFIG_SCHEMA["eps"].bound.text
SOLVER_BOUND = bench.CONFIG_SCHEMA["solvers"].bound.text
LABEL_BOUND = bench.FAMILY_SCHEMA["c1"]["label"].bound.text
WITHIN = {
    ("positive", int): st.integers(1, 40),
    ("positive", float): st.floats(0.0, exclude_min=True, allow_infinity=False),
    ("non-negative", int): st.integers(0, 2 ** 64),
    ("in 1..6", int): st.integers(1, 6),
    (EPS_BOUND, float): st.floats(2.0 ** -1023, 1.0),
    (SOLVER_BOUND, str): st.sampled_from(bench.SOLVERS),
    (LABEL_BOUND, str): st.text(min_size=1, max_size=8).filter(
        problems.is_file_label),
    (None, float): FINITE,
    (None, str): st.text(max_size=8),
    (None, bool): st.booleans(),
}
# A value outside each bound.
OUTSIDE = {"positive": 0, "non-negative": -1, "in 1..6": 7, EPS_BOUND: 2.0,
           SOLVER_BOUND: "NOPE", LABEL_BOUND: "../up"}
FIELDS = {"maxIterations": "max_iterations"}  # ExperimentConfig's names


def within(spec):
    if isinstance(spec.type, list):
        return st.lists(within(spec._replace(type=spec.type[0])),
                        min_size=1, max_size=3)
    return WITHIN[spec.bound and spec.bound.text, spec.type]


@st.composite
def schema_objects(draw, schema):
    """Each required key of `schema`, and each optional one or not."""
    return {key: draw(within(spec)) for key, spec in schema.items()
            if spec.default is bench.REQUIRED or draw(st.booleans())}


@st.composite
def families(draw):
    ftype = draw(st.sampled_from(sorted(bench.FAMILY_SCHEMA)))
    fam = {"type": ftype, **draw(schema_objects(bench.FAMILY_SCHEMA[ftype]))}
    # The three rules outside the schema, defaults included.
    shape = bench.family_values(fam, 0, 0)
    if ftype == "set_p" and shape["n"] < 2:
        fam["n"] = shape["n"] = 2
    if "m" in shape and shape["m"] < shape["n"]:
        fam["m"] = shape["n"]
    if ftype == "c2":
        fam["dw"], fam["up"] = sorted((fam["dw"], fam["up"]))
        assume(fam["dw"] < fam["up"])
    return fam


@st.composite
def configs(draw):
    top = {k: v for k, v in bench.CONFIG_SCHEMA.items() if k != "families"}
    return dict(draw(schema_objects(top)),
                families=draw(st.lists(families(), min_size=1, max_size=3)))


def mutations(doc):
    """(family index or None, key, new value or None to drop it, the field
    its error must name) for each one-field change of `doc`: an unknown
    key, a wrong type, a bool, a value out of bound or not finite, a
    required key dropped, and a break of each rule outside the schema."""
    out = []
    seed = doc.get("seed", bench.CONFIG_SCHEMA["seed"].default)
    for i, schema, where in [(None, bench.CONFIG_SCHEMA, "config")] + [
            (i, bench.FAMILY_SCHEMA[f["type"]], f"families[{i}]")
            for i, f in enumerate(doc["families"])]:
        out.append((i, "bogus", 1, f"{where}.bogus"))
        for key, spec in schema.items():
            bad = [1 if spec.type is str else "x",
                   1 if spec.type is bool else True]
            if isinstance(spec.type, list):
                bad.append([])
            if spec.bound is not None:
                outside = OUTSIDE[spec.bound.text]
                bad.append([outside] if isinstance(spec.type, list)
                           else outside)
            if spec.type is float:
                bad += [math.nan, math.inf, -math.inf]
            if spec.default is bench.REQUIRED:
                bad.append(None)
            out += [(i, key, value, f"{where}.{key}") for value in bad]
        if i is None:
            continue
        out += [(i, "type", 3, f"{where}.type"),
                (i, "type", None, f"{where}.type")]
        fam = bench.family_values(doc["families"][i], i, seed)
        if "m" in fam:
            out.append((i, "m", fam["n"] - 1, f"{where}.m"))
        if doc["families"][i]["type"] == "set_p":
            out.append((i, "n", 1, f"{where}.n"))
        if "dw" in fam:
            out.append((i, "dw", fam["up"], f"{where}.dw"))
    return out


@settings(max_examples=100, deadline=None)
@given(configs())
def test_configs_round_trip_and_each_mutation_names_its_field(doc):
    want = bench.ExperimentConfig(doc["families"], **{
        FIELDS.get(key, key): tuple(v) if key == "solvers" else v
        for key, v in doc.items() if key != "families"})
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")

        def written(obj):
            with open(path, "w") as fh:
                json.dump(obj, fh)
            return path

        assert bench.parse_config(written(doc)) == want
        assert bench.parse_config(doc) == want
        for i, key, value, name in mutations(doc):
            bad = copy.deepcopy(doc)
            obj = bad if i is None else bad["families"][i]
            if value is None:
                del obj[key]
            else:
                obj[key] = value
            for source in (bad, written(bad)):
                with pytest.raises(ConfigError) as exc:
                    bench.parse_config(source)
                assert str(exc.value).startswith((name + ":", name + "[")), \
                    (str(exc.value), name)
