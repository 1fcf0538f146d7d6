"""Single-problem Krylov loops, the reference for the batched engine.

CG, CGLS (with an optional shift) and MINRES on one problem at a time,
with scalar recurrences and a scalar stop rule.  ``qlskit.iterative``
must reproduce their iterates, iteration counts, statuses and histories
bitwise on data it does not scale (every magnitude within
2^+-SAFE_EXPONENT), since it performs the same operations in the same
order.
"""

import numpy as np

from qlskit import iterative, linalg, problems


def drive(steps, tol, maxit, patience, gaps=None):
    """(x, iterations, status, norm history, gap history, steps run) of a
    step generator; the step that breaks down counts as run."""
    x, norm = next(steps)
    hist = [norm]
    threshold = tol * norm
    best, best_k, stalled = norm, 0, 0
    status = "converged" if norm == 0.0 else None
    x_best = x.copy()
    k = 0
    while not status:
        step = next(steps, None)
        k += 1
        if step is None:
            status = "breakdown"
            break
        x, norm = step
        hist.append(norm)
        if not np.isfinite(norm) or norm > iterative.DIVERGENCE_FACTOR * best:
            status = "diverged"
            break
        if norm < best:
            best, best_k, stalled, x_best = norm, k, 0, x.copy()
        else:
            stalled += 1
        if norm <= threshold:
            status = "converged"
        elif stalled >= patience:
            status = "stalled"
        elif k >= maxit:
            status = "max_iterations"
    end = best_k + 1
    gap_hist = None if gaps is None else np.array(gaps[1:end])
    return x_best, best_k, status, np.array(hist[1:end]), gap_hist, k


def cg_steps(a, rhs, x):
    r = rhs - a.T @ (a @ x)
    d = r
    rho = float(r @ r)
    yield x, np.sqrt(rho)
    while True:
        q = a.T @ (a @ d)
        den = float(d @ q)
        if den <= 0.0:
            return
        alpha = rho / den
        x = x + alpha * d
        r = r - alpha * q
        rho_new = float(r @ r)
        yield x, np.sqrt(rho_new)
        d = r + (rho_new / rho) * d
        rho = rho_new


def cgls_steps(a, b, x, shift=None, gaps=None):
    d = b - a @ x
    p_dir = None
    while True:
        r = a.T @ d
        if shift is not None:
            r += shift
        rho_new = float(r @ r)
        if gaps is not None:
            gaps.append(np.linalg.norm((b - a @ x) - d))
        yield x, np.sqrt(rho_new)
        p_dir = r if p_dir is None else r + (rho_new / rho) * p_dir
        rho = rho_new
        t = a @ p_dir
        tt = float(t @ t)
        if tt <= 0.0:
            return
        alpha = rho / tt
        x = x + alpha * p_dir
        d = d - alpha * t


def minres_steps(a, b, c, x):
    m, n = a.shape

    def op(y):
        return np.concatenate([y[:m] + a @ y[m:], a.T @ y[:m]])

    sol = np.concatenate([b - a @ x, x])
    r1 = np.concatenate([b, -c]) - op(sol)
    beta1 = np.linalg.norm(r1)
    yield sol[m:], beta1
    y = r2 = r1
    oldb, beta, dbar, epsln, phibar, cs, sn = 0.0, beta1, 0.0, 0.0, beta1, -1.0, 0.0
    w = np.zeros(m + n)
    w2 = np.zeros(m + n)
    first = True
    while True:
        v = y / beta
        y = op(v)
        if not first:
            y = y - (beta / oldb) * r1
        first = False
        alfa = float(v @ y)
        y = y - (alfa / beta) * r2
        r1, r2, oldb = r2, y, beta
        beta = np.linalg.norm(y)
        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln = sn * beta
        dbar = -cs * beta
        gamma = np.hypot(gbar, beta)
        if gamma == 0.0:
            return
        cs, sn = gbar / gamma, beta / gamma
        phi, phibar = cs * phibar, sn * phibar
        w1, w2 = w2, w
        w = (v - oldeps * w1 - delta * w2) / gamma
        sol = sol + phi * w
        yield sol[m:], phibar


def eps_system(p, eps):
    """[A; eps c^T], (b, 1/eps) of p, for a power of two eps."""
    assert np.frexp(eps)[0] == 0.5, "eps must be a power of two"
    return np.vstack([p.a, eps * p.c]), np.append(p.b, 1.0 / eps)


def solve(method, p, control, eps):
    """The reference outcome of `method` (a solve_batch name) on p."""
    tol, maxit, x0, patience = control.resolve(p.n)
    limits = (tol, maxit, patience)
    if method == "cg":
        return drive(cg_steps(p.a, (p.a.T @ p.b) + p.c, x0), *limits)
    if method == "minres":
        return drive(minres_steps(p.a, p.b, p.c, x0), *limits)
    if method == "cgls_eps":
        return drive(cgls_steps(*eps_system(p, eps), x0), *limits)
    gaps = []
    return drive(cgls_steps(p.a, p.b, x0, p.c, gaps), *limits, gaps=gaps)


METHODS = ("cg", "cgls_i", "cgls_eps", "minres")
PUBLIC = {
    "cg": lambda p, ctrl, eps: iterative.cg_base(p, control=ctrl),
    "cgls_i": lambda p, ctrl, eps: iterative.cgls_i(p, control=ctrl),
    "cgls_eps": lambda p, ctrl, eps: iterative.cgls_eps(p, eps, control=ctrl),
    "minres": lambda p, ctrl, eps: iterative.minres_augmented(p, control=ctrl),
}


def mixed_problems(m=16, n=8):
    """m x n problems whose runs stop for every reason between them.

    Under ``long_control`` CGLSI and CGLSEPS diverge past their floor on
    the first three and run to the cap on "mid"; under ``short_control``
    they stall and MINRES reaches the cap on "mid".  "ls" (columns 1e100
    apart) breaks CGLS down, "shift" (a c-driven rhs on columns 1e170
    apart) breaks CG, CGLSI and MINRES down, "zero" has a zero
    right-hand side and "exact" is solved by x0 = 1.  (As stated for
    16 x 8; other shapes may stop for fewer reasons.)
    """
    rng = np.random.default_rng(np.random.SeedSequence([42, 9]))
    out = [
        problems.assemble_problem(m, n, np.linspace(2.0, 1.0, n),
                                  0.1 * rng.random(n), kind=1, seed=3),
        problems.assemble_problem(m, n, problems.sigma_c1(n, 0.5),
                                  0.1 * rng.random(n), kind=1, seed=109),
        problems.assemble_problem(m, n, problems.sigma_c1(n, 1.5),
                                  0.1 * rng.random(n), kind=2, seed=5),
        problems.assemble_problem(m, n, problems.sigma_c1(n, 0.3),
                                  1e-3 * rng.random(n), kind=3, seed=7,
                                  label="mid"),
    ]
    e2 = np.eye(m)[1]
    for small, b, c, label in ((1e-100, e2, np.zeros(n), "ls"),
                               (1e-170, np.zeros(m), e2[:n], "shift")):
        a = np.zeros((m, n))
        a[:n] = np.diag([1.0] + [small] * (n - 1))
        out.append(problems.QlsProblem(a=a, b=b, c=c, label=label))
    out.append(problems.QlsProblem(a=out[0].a, b=np.zeros(m), c=np.zeros(n),
                                   label="zero"))
    out.append(problems.QlsProblem(a=out[3].a, b=out[3].a @ np.ones(n),
                                   c=np.zeros(n), label="exact"))
    return out


def long_control():
    return iterative.IterationControl(tol=1e-30, max_iterations=3000,
                                      patience=3000)


def short_control(n=8):
    return iterative.IterationControl(tol=1e-30, max_iterations=60,
                                      patience=8, x0=np.ones(n))


def unscaled(method, p, eps):
    """Whether the engine runs `method` on p's data as given (no scaling)."""
    if method == "cgls_eps":
        arrays = list(eps_system(p, eps))
    else:
        arrays = [p.a, np.concatenate([p.b, p.c])]
    if method == "cg":
        arrays.append(p.a.T @ p.b + p.c)
    return all(abs(np.frexp(np.abs(v).max())[1]) <= linalg.SAFE_EXPONENT
               for v in arrays)


def _gap_scale(p, x):
    xref = p.x_exact if p.x_exact is not None else x
    return p.sigma_max() * max(np.linalg.norm(xref), np.finfo(float).tiny)


def mismatches(probs, control, eps=2.0 ** -47):
    """Where a batch, its B = 1 calls and the reference loops disagree.

    Returns (list of mismatch descriptions, set of statuses seen).
    """
    bad, seen = [], set()
    for method in METHODS:
        batch = iterative.solve_batch(method, probs, control, eps)
        traced = iterative.solve_batch(method, probs, control, eps,
                                       history=True)
        for p, o, t in zip(probs, batch, traced):
            one = PUBLIC[method](p, control, eps)
            seen.add(one.status)
            if unscaled(method, p, eps):
                x, k, status, hist, gaps, run = solve(method, p, control, eps)
                want = [x, k, run, status, hist]
                if method == "cgls_i":
                    gaps = gaps / _gap_scale(p, x)
                    want += [gaps, float(gaps[-1]) if len(gaps) else 0.0]
            else:
                want = _fields(one, method)
            for got, label in ((one, "single"), (t, "batch+history"),
                               (o, "batch")):
                for j, (w, h) in enumerate(zip(want, _fields(got, method))):
                    if label == "batch" and j in (4, 5):
                        if h is not None:
                            bad.append((method, p.label, label, "history kept"))
                    elif not np.array_equal(w, h):
                        bad.append((method, p.label, label, j))
    return bad, seen


def _fields(o, method):
    """The compared fields of outcome o, in the order of `mismatches`."""
    have = [o.x, o.iterations, o.iterations_run, o.status,
            o.residual_norm_history]
    if method == "cgls_i":
        have += [o.true_residual_gap_history, o.residual_gap]
    return have
