"""Problem construction: shifted least-squares instances and derived systems.

A problem holds (A, b, c) with full-column-rank A and asks for the x
solving A^T A x = A^T b + c, equivalently minimizing
0.5 ||A x - b||^2 - c^T x.  Synthetic instances are built from a
prescribed singular spectrum and deterministic orthogonal factors, with
b chosen so a known integer-entry solution is exact up to roundoff.
``Stack`` is the stacked view of same-shape problems that the solvers
and the analysis share, and ``grouped`` their one-or-group convention.
"""

import binascii
import functools
import inspect
import itertools
import math
import os

import numpy as np
from dataclasses import dataclass, field

from . import linalg as la
from .errors import DimensionMismatch, InvalidParameter, RankDeficient

# Default regularization weight for the stacked-row system; a power of two
# so scaling c by eps and 1/eps is exact in binary64.
DEFAULT_EPS = 2.0 ** -47

# Largest and smallest regularization weights: above one the row eps c^T
# outweighs A, and eps^2 terms overflow long before eps does; below
# 2^-1023 the row's right-hand side 1/eps overflows.
MAX_EPS, MIN_EPS = 1.0, 2.0 ** -1023

# Default seed for the benchmark problem collection.
DEFAULT_SET_SEED = 1729

# verify_construction's bound on the residual, in
# u (||A||^2 ||x_exact|| + ||A|| ||b|| + ||c||).
VERIFY_FACTOR = 1e3


def is_power_of_two(x):
    if not (x > 0.0 and math.isfinite(x)):
        return False
    return math.frexp(x)[0] == 0.5


def nearest_power_of_two(x):
    """Round a positive float to the nearest power of two (ties go up)."""
    m, e = math.frexp(x)
    return 2.0 ** (e - 1) if m < 0.75 else 2.0 ** e


def eps_weight(eps):
    """(eps rounded to a power of two, whether it moved); the rounded eps
    must lie in [MIN_EPS, MAX_EPS]."""
    moved = 0.0 < eps <= MAX_EPS and not is_power_of_two(eps)
    weight = nearest_power_of_two(eps) if moved else eps
    if not MIN_EPS <= weight <= MAX_EPS:
        raise InvalidParameter(f"eps must round to a power of two in "
                               f"[2^-1023, {MAX_EPS}], got {eps!r}")
    return weight, moved


@dataclass
class QlsProblem:
    """One instance of A^T A x = A^T b + c.

    `x_exact` is the construction solution when known (None otherwise);
    `label` identifies the instance in benchmark records.  A problem is
    its data plus its singular values, computed lazily and cached on the
    instance; code that needs a factorization of A computes its own.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    x_exact: np.ndarray = None
    label: str = ""
    _sigma: np.ndarray = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.a = la.as_matrix(self.a, "a")
        self.b = la.as_vector(self.b, "b")
        self.c = la.as_vector(self.c, "c")
        m, n = self.a.shape
        if m < n or n < 1:
            raise DimensionMismatch(f"need rows >= cols >= 1, got {m} x {n}")
        if self.b.shape[0] != m:
            raise DimensionMismatch("b length does not match row count")
        if self.c.shape[0] != n:
            raise DimensionMismatch("c length does not match column count")
        if self.x_exact is not None:
            self.x_exact = la.as_vector(self.x_exact, "x_exact")
            if self.x_exact.shape[0] != n:
                raise DimensionMismatch("x_exact length does not match column count")

    @property
    def m(self):
        return self.a.shape[0]

    @property
    def n(self):
        return self.a.shape[1]

    def residual(self, x):
        return self.b - self.a @ x

    def singular_values(self):
        if self._sigma is None:
            self._sigma = la.svd(self.a)
        return self._sigma

    def sigma_max(self):
        return float(self.singular_values()[0])

    def sigma_min(self):
        return float(self.singular_values()[-1])

    def kappa(self):
        """sigma_max / sigma_min; RankDeficient when sigma_min is 0."""
        smin = self.sigma_min()
        if smin == 0.0:
            raise RankDeficient("matrix has a zero singular value")
        return self.sigma_max() / smin

    def seed_spectrum(self, sigma):
        # A spectrum known from construction: no SVD for the instance.
        self._sigma = np.sort(np.asarray(sigma, dtype=float))[::-1]

    def verify_construction(self):
        """Check A^T A x_exact = A^T b + c up to the admissible roundoff.

        The bound is VERIFY_FACTOR u (||A||^2 ||x|| + ||A|| ||b|| + ||c||),
        the size of the terms the residual is formed from, so it does not
        vanish with x_exact or with A^T b + c.  A rank-deficient A raises
        RankDeficient: x_exact is then not the one solution.
        """
        if self.x_exact is None:
            return
        rhs = self.a.T @ self.b + self.c
        lhs = self.a.T @ (self.a @ self.x_exact)
        self.kappa()
        na = self.sigma_max()
        tol = VERIFY_FACTOR * la.U * (
            na * (na * la.safe_norm(self.x_exact) + la.safe_norm(self.b))
            + la.safe_norm(self.c))
        err = la.safe_norm(lhs - rhs)
        if err > tol:
            raise InvalidParameter(
                f"x_exact violates the normal equations: {err:.3e} > {tol:.3e}"
            )


# ---------------------------------------------------------------------------
# Singular spectra and orthogonal factors
# ---------------------------------------------------------------------------

def sigma_c1(n, a):
    """Geometric spectrum a^-1, a^-2, ..., a^-n."""
    if n < 1:
        raise InvalidParameter("n must be >= 1")
    if not (a > 0.0 and math.isfinite(a)):
        raise InvalidParameter("a must be positive and finite")
    return a ** -np.arange(1.0, n + 1.0)


def sigma_c2(n, dw, up):
    """n equally spaced singular values from dw to up inclusive."""
    if n < 1:
        raise InvalidParameter("n must be >= 1")
    if not (0.0 < dw < up and math.isfinite(up)):
        raise InvalidParameter("need 0 < dw < up")
    return np.linspace(dw, up, n)


def seeded_rng(*entropy):
    """numpy's generator of SeedSequence(entropy); every seed enters here,
    and a negative one raises InvalidParameter, not numpy's ValueError."""
    if min(entropy) < 0:
        raise InvalidParameter(f"seed must be non-negative, got {list(entropy)}")
    return np.random.default_rng(np.random.SeedSequence(entropy))


# Columns that a thin seeded factor factors and forms past the `cols` it
# keeps.  Reflector k of an unpivoted QR reads only columns <= k, and
# later reflectors leave Q's leading columns exactly as they are; but a
# BLAS gemv sums its last few columns (the tail of its column blocking)
# in another order, so a kept column must sit clear of that tail for the
# thin factor to be bitwise the square one's leading columns.
THIN_PAD = 8


def _seeded_factors(dim, specs, cols):
    """Leading `cols` columns of the Q factors, column signs fixed by
    diag(R) > 0, of the seeded Gaussian matrices of `specs` ((kind, seed)
    pairs), as one stack.  Each Gaussian is drawn whole, so the stream
    does not depend on `cols`; only its leading min(dim, cols + THIN_PAD)
    columns are factored and formed."""
    g = np.empty((len(specs), dim, dim))
    for b, (kind, seed) in enumerate(specs):
        seeded_rng(seed, kind, dim).standard_normal(out=g[b])
    w = min(dim, cols + THIN_PAD)
    f, g = la.householder_qr(g[:, :, :w]), None
    q = la.apply_q(f, np.eye(dim, w))[:, :, :cols]
    q *= np.copysign(1.0, np.diagonal(f.r, axis1=1, axis2=2))[:, None, :cols]
    return q


def _closed_form_factor(dim, kind):
    if kind == 1:
        i = np.arange(1.0, dim + 1.0)
        return np.sqrt(2.0 / (dim + 1.0)) * np.sin(np.outer(i, i) * np.pi / (dim + 1.0))
    i = np.arange(dim)
    ang = 2.0 * np.pi * np.outer(i, i) / dim
    return (np.cos(ang) + np.sin(ang)) / np.sqrt(dim)


def orthogonal_factors(dim, specs, cols=None):
    """Deterministic orthogonal matrices of order `dim`, one per (kind,
    seed) pair of `specs`, in order, each cut to its leading `cols`
    columns (default: all `dim`).

    Kinds 1 and 2 are closed-form trigonometric families (the symmetric
    sine transform and the Hartley cas kernel), built once per call and
    shared by every pair that names them.  Kinds 3 to 6 take the Q factor
    of a seeded Gaussian matrix, with column signs fixed so the result is
    unique; their QRs and Q formations run in stacks of up to
    `linalg.STACK_CHUNK`, each factor bitwise that of a stack of one.  The
    seed only matters for kinds 3 to 6.  A thin seeded factor factors and
    forms only its leading cols + `THIN_PAD` columns (at most `dim`), and
    its columns are bitwise the square factor's leading ones.
    """
    cols = dim if cols is None else cols
    if dim < 1:
        raise InvalidParameter("dim must be >= 1")
    if not 1 <= cols <= dim:
        raise InvalidParameter(f"cols must be in 1..{dim}, got {cols}")
    for kind, _ in specs:
        if kind not in (1, 2, 3, 4, 5, 6):
            raise InvalidParameter(f"kind must be in 1..6, got {kind}")
    closed = {kind: _closed_form_factor(dim, kind)[:, :cols]
              for kind in {kind for kind, _ in specs if kind < 3}}
    out = [closed.get(kind) for kind, _ in specs]
    seeded = [pos for pos, (kind, _) in enumerate(specs) if kind > 2]
    for lo in range(0, len(seeded), la.STACK_CHUNK):
        part = seeded[lo:lo + la.STACK_CHUNK]
        for pos, q in zip(part, _seeded_factors(
                dim, [specs[pos] for pos in part], cols)):
            out[pos] = q
    return out


def orthogonal_factor(dim, kind, seed=0):
    """Deterministic orthogonal matrix of order `dim`: the one-pair call
    of `orthogonal_factors`."""
    return orthogonal_factors(dim, [(kind, seed)])[0]


def assemble_problem(m, n, sigma, c, kind=1, seed=0, label="", u=None, v=None):
    """Build a problem A = U diag(sigma) V^T with known exact solution.

    x_exact is (n-1, n-2, ..., 1, 0) and b = A x_exact - (A^dagger)^T c,
    with the pseudoinverse applied through the construction factors.

    Parameters
    ----------
    m, n : int
        Shape, m >= n.
    sigma : (n,) array_like
        Positive singular values.
    c : (n,) array_like
        Shift vector.
    kind, seed : int
        Orthogonal-factor family and seed; U uses `seed`, V uses seed+1.
        The generated U is thin: only its leading n columns are built.
    u, v : array_like, optional
        Explicit orthogonal factors (m x m or m x n, and n x n).  When
        given they replace the generated ones and `kind`/`seed` are
        ignored; only the leading n columns of u are read.
    """
    sigma = la.as_vector(sigma, "sigma")
    c = la.as_vector(c, "c")
    if sigma.shape[0] != n or c.shape[0] != n:
        raise DimensionMismatch("sigma and c must have length n")
    if np.any(sigma <= 0.0):
        raise InvalidParameter("singular values must be positive")
    if m < n:
        raise DimensionMismatch(f"need m >= n, got {m} x {n}")
    if u is None:
        u = orthogonal_factors(m, [(kind, seed)], n)[0]
    else:
        u = la.as_matrix(u, "u")
        if u.shape not in ((m, m), (m, n)):
            raise DimensionMismatch("u must be m x m or m x n")
    if v is None:
        v = orthogonal_factor(n, kind, seed + 1)
    else:
        v = la.as_matrix(v, "v")
        if v.shape != (n, n):
            raise DimensionMismatch("v must be n x n")
    un = u[:, :n]
    a = un @ (sigma[:, None] * v.T)
    x = np.arange(n - 1, -1, -1, dtype=float)
    pinv_t_c = un @ ((v.T @ c) / sigma)
    b = a @ x - pinv_t_c
    p = QlsProblem(a, b, c, x_exact=x, label=label)
    p.seed_spectrum(sigma)
    p.verify_construction()
    return p


# ---------------------------------------------------------------------------
# Stacks of same-shape problems
# ---------------------------------------------------------------------------

def _one_shape(probs):
    """The (m, n) that every problem of a nonempty group shares."""
    shapes = {p.a.shape for p in probs}
    if len(shapes) != 1:
        raise DimensionMismatch("a group needs problems of one shape")
    return shapes.pop()


class Stack:
    """A, b and c of same-shape problems `probs` (or the stacks `data`)
    as (B, m, n), (B, m) and (B, n) stacks.

    `ea` and `es` are, per problem, the exponents that bring the data in
    range (``linalg.scale_exponent``; 0 for data already in range): A by
    2^-ea, b by 2^-es and c by 2^-(ea+es), so that x = 2^(es-ea) x'.
    """

    def __init__(self, probs, data=None):
        if data is None:
            _one_shape(probs)
            data = [np.stack([getattr(p, k) for p in probs]) for k in "abc"]
        self.probs, (self.a, self.b, self.c) = probs, data
        self.ea = la.scale_exponent(self.a, axis=(1, 2))[:, 0, 0]
        self.es = la.scale_exponent(np.concatenate(
            [self.b, np.ldexp(self.c, -self.ea[:, None])], axis=1), axis=1)[:, 0]

    def in_range(self):
        """The stack of the scaled data; the stack itself if none is due."""
        if not (self.ea.any() or self.es.any()):
            return self
        ea, es = self.ea[:, None], self.es[:, None]
        return Stack(self.probs, (np.ldexp(self.a, -ea[:, :, None]),
                                  np.ldexp(self.b, -es),
                                  np.ldexp(self.c, -(ea + es))))

    def unscale(self, x):
        """The (B, n) solutions 2^(es-ea) x' of in-range solutions x'."""
        return np.ldexp(x, (self.es - self.ea)[:, None])

    def residual(self, x):
        return self.b - la.mv(self.a, x)

    @functools.cached_property
    def qr(self):
        """The QR of each A, factored once for every use of the stack."""
        return la.qr_factorize(self.a)

    def eps_system(self, eps):
        """[A; eps c^T], (b, 1/eps) as a stack whose c is zero; eps is a
        power of two, so both scalings of c are exact."""
        col = np.full((len(self.b), 1), 1.0 / eps)
        return Stack(self.probs, (
            np.concatenate([self.a, eps * self.c[:, None]], axis=1),
            np.concatenate([self.b, col], axis=1), np.zeros_like(self.c)))

    def augmented(self, scale):
        """The saddle matrices [[s I, A], [A^T, 0]] and right-hand sides
        (b, -c/s) for the (B,) scales s, as two stacks; for any s the
        solution is (r/s, x), r = b - A x."""
        if not (np.isfinite(scale) & (scale > 0.0)).all():
            raise InvalidParameter("scale must be positive and finite")
        count, m, n = self.a.shape
        k = np.zeros((count, m + n, m + n))
        k[:, :m, :m] = scale[:, None, None] * np.eye(m)
        k[:, :m, m:], k[:, m:, :m] = self.a, self.a.mT
        return k, np.concatenate([self.b, -self.c / scale[:, None]], axis=1)


def grouped(size=None, iterate=False):
    """Decorator: a body that maps a `Stack` (with `iterate`, and a (B, n)
    stack of iterates) to a list of values becomes a function of one
    problem (and its vector), giving one value, or of a list or tuple of
    same-shape problems (and a (B, n) stack), giving the list, run in
    stacks of `size(m, n)` problems (default ``linalg.STACK_CHUNK``),
    read at each call; arguments bind as in a call of the body."""
    def wrap(body):
        bind = inspect.signature(body).bind

        @functools.wraps(body)
        def call(p, *args, **kwargs):
            bound = bind(p, *args, **kwargs)
            args, kwargs = bound.args[1:], bound.kwargs
            single = not isinstance(p, (list, tuple))
            probs = [p] if single else list(p)
            m, n = _one_shape(probs)
            if iterate:
                x, *args = args
                x = (la.as_vector(x, "x")[None] if single
                     else la.as_matrix(x, "x"))
                if x.shape != (len(probs), n):
                    raise DimensionMismatch("x needs one row per problem")
            step, out = la.STACK_CHUNK if size is None else size(m, n), []
            for lo in range(0, len(probs), step):
                part = (x[lo:lo + step], *args) if iterate else args
                out.extend(body(Stack(probs[lo:lo + step]), *part, **kwargs))
            return out[0] if single else out

        return call

    return wrap


# ---------------------------------------------------------------------------
# Benchmark problem collection
# ---------------------------------------------------------------------------

_C_MAGNITUDES = (1e2, 1.0, 1e-4, 1e-10)


def _c_band(style, s):
    # Band endpoints drawn from the +/- magnitude set.
    smaller = {1e2: 1.0, 1.0: 1e-4, 1e-4: 1e-10, 1e-10: 1e-10}[s]
    if style == 1 and smaller != s:
        return smaller, s
    if style == 2 and smaller != s:
        return -s, -smaller
    return -s, s


def generate_problem_set_p(seed=DEFAULT_SET_SEED, m=100, n=50):
    """Deterministic 40-problem benchmark collection.

    20 geometric-spectrum and 20 linear-spectrum instances whose
    condition numbers cover [1, 1e10] on a log grid, rotating orthogonal
    kinds and c magnitudes.  The c magnitude steps down whenever the
    induced residual would dominate ||A|| ||x_exact||, which keeps every
    instance's scaling sane (large condition numbers pair with small c).
    """
    # Every factor of one order comes from one orthogonal_factors call;
    # the loop drops each pair once its problem is built.
    units = [seeded_rng(seed, idx).random(n) for idx in range(40)]
    specs = [(1 + idx % 6, seed * 100 + idx) for idx in range(40)]
    us = orthogonal_factors(m, specs, n)
    vs = orthogonal_factors(n, [(kind, s + 1) for kind, s in specs])
    problems = []
    for idx in range(40):
        family = "c1" if idx < 20 else "c2"
        j = idx % 20
        if family == "c1":
            q = 10.0 * j / 19.0
            a_par = 10.0 ** (-q / (n - 1)) if j % 2 == 0 else 10.0 ** (q / (n - 1))
            sigma = sigma_c1(n, a_par)
            tag = f"a{a_par:.6g}"
        else:
            q = 0.5 + 9.5 * j / 19.0
            # Larger spreads pair with larger top values so some admissible
            # c magnitude always keeps the residual below ||A|| ||x_exact||.
            up = (1e-2, 1e-1, 1.0, 1e2, 1e3)[j // 4]
            dw = up / 10.0 ** q
            sigma = sigma_c2(n, dw, up)
            tag = f"up{up:.6g}-dw{dw:.6g}"
        kind, prob_seed = specs[idx]
        u, v, us[idx], vs[idx] = us[idx], vs[idx], None, None
        x_norm = np.linalg.norm(np.arange(n, dtype=float))
        style = idx % 3
        chosen = None
        for s in _C_MAGNITUDES:
            lo, hi = _c_band(style, s)
            cand = lo + (hi - lo) * units[idx]
            rho = np.linalg.norm((v.T @ cand) / sigma)
            if rho <= 0.5 * np.max(sigma) * x_norm:
                chosen = cand
                break
        if chosen is None:
            lo, hi = _c_band(style, _C_MAGNITUDES[-1])
            chosen = lo + (hi - lo) * units[idx]
        label = f"p{idx:02d}-{family}-{tag}-k{kind}-s{prob_seed}"
        # u and v are the factors assemble_problem would build again.
        problems.append(assemble_problem(m, n, sigma, chosen, label=label, u=u, v=v))
    return problems


# ---------------------------------------------------------------------------
# Serialization: exact text round trip via hexadecimal float literals
# ---------------------------------------------------------------------------

def is_header_label(label):
    """Whether a problem file's header reads `label` back: printable (no
    line or paragraph break splits the header), with no space at either
    end (the header reader strips it).  "" is the unlabelled header."""
    return label.isprintable() and label == label.strip()


def is_file_label(label):
    """Whether `label` can name the file ``<label>.qls`` of its problem
    in a directory and be read back from its header: one non-empty path
    component, not "." or "..", and a header label."""
    return (label not in ("", ".", "..") and is_header_label(label)
            and os.path.basename(label) == label)


def _write_block(name, arr):
    """Block `name` of a problem file: its name, its size line and each
    row of `arr` (a vector as one column), the entries of a row as
    ``float.hex`` text joined by spaces.

    One array kernel formats the block, byte for byte as ``float.hex``
    would: each entry is a fixed-width record of sign, "0x", lead digit,
    ".", the 13 fraction digits of one hexlify of the big-endian block,
    "p", the signed decimal exponent and a separator; unused bytes are
    NUL and go in one pass.  Zero is "0x0.0p+0" and a subnormal has lead
    digit 0 and exponent -1022.  Only finite entries have such a record,
    and only those are read back: any other, or an empty block, raises
    InvalidParameter.
    """
    if np.size(arr) == 0:
        raise InvalidParameter(f"{name} is empty")
    arr = np.ascontiguousarray(la.as_matrix(np.reshape(arr, (len(arr), -1)), name))
    rows, cols = arr.shape
    bits = arr.view(np.uint64).ravel()
    # Columns: 0 sign, 1-2 "0x", 3 lead digit, 4 ".", 5-17 fraction, 18
    # "p", 19 exponent sign, 20-23 exponent digits, 24 separator.
    template = b"\0" b"0x0." + b"0" * 13 + b"p+0000 "
    rec = np.frombuffer(bytearray(template * bits.size), np.uint8).reshape(-1, 25)
    rec[:, 0] = (bits >> 63).astype(np.uint8) * ord("-")
    biased = (bits >> 52).astype(np.int16) & 0x7FF
    rec[:, 3] += biased != 0
    hexed = np.frombuffer(binascii.hexlify(arr.astype(">f8")), np.uint8)
    rec[:, 5:18] = hexed.reshape(-1, 16)[:, 3:]
    # Sign and four digits of each biased exponent the block spans, digits
    # before the first nonzero one NUL; a subnormal's exponent is -1022.
    lo = biased.min()
    exp = np.maximum(np.arange(lo, biased.max() + 1, dtype=np.int16), 1) - 1023
    mag = np.abs(exp)
    field = np.empty((exp.size, 5), np.uint8)
    field[:, 0] = ord("+") + 2 * (exp < 0)
    for col, place in enumerate((1000, 100, 10), start=1):
        field[:, col] = (ord("0") + mag // place % 10) * (mag >= place)
    field[:, 4] = ord("0") + mag % 10
    rec[:, 19:24] = np.take(field, biased - lo, axis=0)
    zero = (bits << 1) == 0  # +-0.0 is "0x0.0p+0"
    rec[zero, 6:18] = 0
    rec[zero, 19:24] = np.frombuffer(b"+\0\0\0" b"0", np.uint8)
    rec[cols - 1::cols, 24] = ord("\n")
    text = rec.tobytes().translate(None, b"\0").decode("ascii")
    return f"{name}\n{rows} {cols}\n{text}"


def _next_line(it, name):
    try:
        return next(it)
    except StopIteration:
        raise InvalidParameter(f"truncated file inside block {name!r}") from None


def _read_block(it, name):
    """Block `name` as a matrix ("A") or a vector (every other block)."""
    header = _next_line(it, name).strip()
    if header != name:
        raise InvalidParameter(f"expected block {name!r}, found {header!r}")
    size = _next_line(it, name)
    try:
        m, n = (int(tok) for tok in size.split())
    except ValueError:  # not two integers: rejected with negative sizes
        m = n = -1
    if min(m, n) < 0:
        raise InvalidParameter(f"block {name!r}: bad size line {size!r}")
    if name != "A" and n != 1:
        raise InvalidParameter(f"block {name!r}: a vector block has one "
                               f"column, got {n}")
    rows = [_next_line(it, name).split() for _ in range(m)]
    # A block of no rows is rejected too: no block of a problem is empty.
    if m == 0 or any(len(row) != n for row in rows):
        raise InvalidParameter(f"block {name!r} has inconsistent shape")
    try:
        flat = np.fromiter(map(float.fromhex, itertools.chain.from_iterable(rows)),
                           dtype=float, count=m * n)
    except ValueError as exc:
        raise InvalidParameter(f"block {name!r}: {exc}") from None
    return flat.reshape(m, n) if name == "A" else flat


def save_problem(p, path):
    """Write a problem to a text file that round-trips bitwise, in one
    write; a label that is no header label, or a block that load_problem
    would reject (empty, or with a non-finite entry), raises
    InvalidParameter before the file is opened."""
    if not is_header_label(p.label):
        raise InvalidParameter(f"label {p.label!r} cannot be read back from "
                               "a file header: it must be printable, with "
                               "no space at either end")
    blocks = [("A", p.a), ("b", p.b), ("c", p.c), ("x", p.x_exact)]
    text = "".join([f"qls-problem {p.label}".rstrip() + "\n"] + [
        _write_block(name, arr) for name, arr in blocks if arr is not None])
    with open(path, "w") as fh:
        fh.write(text)


def load_problem(path, verify=True):
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("qls-problem"):
        raise InvalidParameter(f"{path}: not a problem file")
    label = lines[0][len("qls-problem"):].strip()
    it = iter(lines[1:])
    a, b, c = (_read_block(it, name) for name in ("A", "b", "c"))
    rest = list(it)
    it = iter(rest)
    x = _read_block(it, "x") if rest else None
    extra = next(it, None)
    if extra is not None:
        raise InvalidParameter(f"{path}: unexpected line after the last block: "
                               f"{extra[:40]!r}")
    p = QlsProblem(a, b, c, x_exact=x, label=label)
    if verify:
        p.verify_construction()
    return p
