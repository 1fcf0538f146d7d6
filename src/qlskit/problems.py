"""Problem construction: shifted least-squares instances and derived systems.

A problem holds (A, b, c) with full-column-rank A and asks for the x
solving A^T A x = A^T b + c, equivalently minimizing
0.5 ||A x - b||^2 - c^T x.  Synthetic instances are built from a
prescribed singular spectrum and deterministic orthogonal factors, with
b chosen so a known integer-entry solution is exact up to roundoff.
"""

import math

import numpy as np
from dataclasses import dataclass, field

from . import linalg as la
from .errors import DimensionMismatch, InvalidParameter

# Default regularization weight for the stacked-row system; a power of two
# so scaling c by eps and 1/eps is exact in binary64.
DEFAULT_EPS = 2.0 ** -47

# Default seed for the benchmark problem collection.
DEFAULT_SET_SEED = 1729


def is_power_of_two(x):
    if not (x > 0.0 and math.isfinite(x)):
        return False
    return math.frexp(x)[0] == 0.5


def nearest_power_of_two(x):
    """Round a positive float to the nearest power of two (ties go up)."""
    m, e = math.frexp(x)
    return 2.0 ** (e - 1) if m < 0.75 else 2.0 ** e


@dataclass
class QlsProblem:
    """One instance of A^T A x = A^T b + c.

    `x_exact` is the construction solution when known (None otherwise);
    `label` identifies the instance in benchmark records.  Spectral data
    (SVD, QR) is computed lazily and cached on the instance.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    x_exact: np.ndarray = None
    label: str = ""
    _svd: la.SvdFactorization = field(default=None, repr=False, compare=False)
    _qr: la.QrFactorization = field(default=None, repr=False, compare=False)

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

    def svd(self):
        if self._svd is None:
            self._svd = la.svd(self.a)
        return self._svd

    def qr(self):
        if self._qr is None:
            self._qr = la.qr_factorize(self.a)
        return self._qr

    def singular_values(self):
        return self.svd().sigma

    def sigma_max(self):
        return float(self.singular_values()[0])

    def sigma_min(self):
        return float(self.singular_values()[-1])

    def kappa(self):
        return self.sigma_max() / self.sigma_min()

    def seed_spectrum(self, sigma, u, v):
        # Construction-time factors: avoids a Jacobi SVD per instance.
        order = np.argsort(-np.asarray(sigma, dtype=float), kind="stable")
        sig = np.asarray(sigma, dtype=float)[order]
        self._svd = la.SvdFactorization(u=u[:, order], sigma=sig, v=v[:, order])

    def verify_construction(self, tol_factor=1e3):
        """Check A^T A x_exact = A^T b + c up to the admissible roundoff."""
        if self.x_exact is None:
            return
        rhs = self.a.T @ self.b + self.c
        lhs = self.a.T @ (self.a @ self.x_exact)
        tol = tol_factor * la.U * self.kappa() ** 2 * np.linalg.norm(rhs)
        err = np.linalg.norm(lhs - rhs)
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


def orthogonal_factor(dim, kind, seed=0):
    """Deterministic orthogonal matrix of order `dim`.

    Kinds 1 and 2 are closed-form trigonometric families (the symmetric
    sine transform and the Hartley cas kernel); kinds 3 to 6 take the Q
    factor of a seeded Gaussian matrix, with column signs fixed so the
    result is unique.  The seed only matters for kinds 3 to 6.
    """
    if dim < 1:
        raise InvalidParameter("dim must be >= 1")
    if kind not in (1, 2, 3, 4, 5, 6):
        raise InvalidParameter(f"kind must be in 1..6, got {kind}")
    if kind == 1:
        i = np.arange(1.0, dim + 1.0)
        return np.sqrt(2.0 / (dim + 1.0)) * np.sin(np.outer(i, i) * np.pi / (dim + 1.0))
    if kind == 2:
        i = np.arange(dim)
        ang = 2.0 * np.pi * np.outer(i, i) / dim
        return (np.cos(ang) + np.sin(ang)) / np.sqrt(dim)
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), kind, dim]))
    g = rng.standard_normal((dim, dim))
    f = la.qr_factorize(g)
    q = la.apply_q(f, np.eye(dim))
    signs = np.copysign(1.0, np.diag(f.r))
    return q * signs


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
    u, v : array_like, optional
        Explicit orthogonal factors (m x m and n x n).  When given they
        replace the generated ones and `kind`/`seed` are ignored.
    """
    sigma = la.as_vector(sigma, "sigma")
    c = la.as_vector(c, "c")
    if sigma.shape[0] != n or c.shape[0] != n:
        raise DimensionMismatch("sigma and c must have length n")
    if np.any(sigma <= 0.0):
        raise InvalidParameter("singular values must be positive")
    if u is None:
        u = orthogonal_factor(m, kind, seed)
    else:
        u = la.as_matrix(u, "u")
        if u.shape != (m, m):
            raise DimensionMismatch("u must be m x m")
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
    p.seed_spectrum(sigma, u=un, v=v)
    p.verify_construction()
    return p


# ---------------------------------------------------------------------------
# Derived systems
# ---------------------------------------------------------------------------

@dataclass
class EpsSystem:
    """Stacked system [A; eps c^T], (b, 1/eps); eps an exact power of two."""

    a_eps: np.ndarray
    b_eps: np.ndarray
    eps: float
    adjusted: bool = False


@dataclass
class AugmentedSystem:
    """Symmetric saddle system [[scale I, A], [A^T, 0]].

    The right-hand side is (b, -c/scale): the x block of the solution
    then solves the base problem for any scale, and the leading block
    recovers the residual divided by scale.
    """

    k: np.ndarray
    rhs: np.ndarray
    scale: float


def build_eps_system(p, eps=DEFAULT_EPS):
    if not (eps > 0.0 and math.isfinite(eps)):
        raise InvalidParameter("eps must be positive and finite")
    adjusted = False
    if not is_power_of_two(eps):
        eps = nearest_power_of_two(eps)
        adjusted = True
    a_eps = np.vstack([p.a, eps * p.c])
    b_eps = np.append(p.b, 1.0 / eps)
    return EpsSystem(a_eps, b_eps, eps, adjusted)


def build_augmented(p, scale=None):
    if scale is None:
        scale = p.sigma_min() / np.sqrt(2.0)
    if not (scale > 0.0 and math.isfinite(scale)):
        raise InvalidParameter("scale must be positive and finite")
    m, n = p.m, p.n
    k = np.zeros((m + n, m + n))
    k[:m, :m] = scale * np.eye(m)
    k[:m, m:] = p.a
    k[m:, :m] = p.a.T
    rhs = np.concatenate([p.b, -p.c / scale])
    return AugmentedSystem(k, rhs, float(scale))


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
        kind = 1 + idx % 6
        prob_seed = seed * 100 + idx
        rng = np.random.default_rng(np.random.SeedSequence([seed, idx]))
        unit = rng.random(n)
        u = orthogonal_factor(m, kind, prob_seed)
        v = orthogonal_factor(n, kind, prob_seed + 1)
        x_norm = np.linalg.norm(np.arange(n, dtype=float))
        style = idx % 3
        chosen = None
        for s in _C_MAGNITUDES:
            lo, hi = _c_band(style, s)
            cand = lo + (hi - lo) * unit
            rho = np.linalg.norm((v.T @ cand) / sigma)
            if rho <= 0.5 * np.max(sigma) * x_norm:
                chosen = cand
                break
        if chosen is None:
            lo, hi = _c_band(style, _C_MAGNITUDES[-1])
            chosen = lo + (hi - lo) * unit
        label = f"p{idx:02d}-{family}-{tag}-k{kind}-s{prob_seed}"
        problems.append(
            assemble_problem(m, n, sigma, chosen, kind=kind, seed=prob_seed, label=label)
        )
    return problems


# ---------------------------------------------------------------------------
# Serialization: exact text round trip via hexadecimal float literals
# ---------------------------------------------------------------------------

def _write_block(lines, name, arr):
    arr = np.atleast_2d(np.asarray(arr, dtype=float))
    if arr.shape[0] == 1 and name != "A":
        arr = arr.T
    lines.append(name)
    lines.append(f"{arr.shape[0]} {arr.shape[1]}")
    for row in arr:
        lines.append(" ".join(float.hex(float(x)) for x in row))


def _next_line(it, name):
    try:
        return next(it)
    except StopIteration:
        raise InvalidParameter(f"truncated file inside block {name!r}") from None


def _read_block(it, name):
    header = _next_line(it, name).strip()
    if header != name:
        raise InvalidParameter(f"expected block {name!r}, found {header!r}")
    m, n = (int(tok) for tok in _next_line(it, name).split())
    rows = []
    for _ in range(m):
        rows.append([float.fromhex(tok) for tok in _next_line(it, name).split()])
    arr = np.array(rows, dtype=float)
    if arr.shape != (m, n):
        raise InvalidParameter(f"block {name!r} has inconsistent shape")
    return arr


def save_problem(p, path):
    """Write a problem to a text file that round-trips bitwise."""
    lines = [f"qls-problem {p.label}".rstrip()]
    _write_block(lines, "A", p.a)
    _write_block(lines, "b", p.b)
    _write_block(lines, "c", p.c)
    if p.x_exact is not None:
        _write_block(lines, "x", p.x_exact)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_problem(path, verify=True):
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("qls-problem"):
        raise InvalidParameter(f"{path}: not a problem file")
    label = lines[0][len("qls-problem"):].strip()
    it = iter(lines[1:])
    a = _read_block(it, "A")
    b = _read_block(it, "b")[:, 0]
    c = _read_block(it, "c")[:, 0]
    x = None
    rest = list(it)
    if rest:
        x = _read_block(iter(rest), "x")[:, 0]
    p = QlsProblem(a, b, c, x_exact=x, label=label)
    if verify:
        p.verify_construction()
    return p
