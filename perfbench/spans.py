"""In-memory span tracer that wraps qlskit's public functions.

``Tracer.install`` replaces each traced function at its module (or
class) attribute with a wrapper that records one span per call: name,
parent span, start and end in nanoseconds.  qlskit's modules call each
other through module attributes (``la.svd``, ``problems.load_problem``)
or module globals, so the wrappers see the calls made inside the
package as well as those made from the benchmark.  Nothing under
``src/`` changes; ``uninstall`` puts the originals back.

Self time of a span is its duration minus the durations of its direct
children, so self times of all spans under one root add up to the
root's duration.
"""

import contextlib
import json
import time

# (module, attribute) pairs; "Class.method" names a method.
TRACED = (
    ("cli", "main"),
    ("bench", "build_problems"),
    ("bench", "run_suite"),
    ("bench", "emit_records"),
    ("problems", "assemble_problem"),
    ("problems", "save_problem"),
    ("problems", "load_problem"),
    ("problems", "QlsProblem.verify_construction"),
    ("linalg", "svd"),
    ("linalg", "qr_factorize"),
    ("linalg", "solve_triangular"),
    ("linalg", "sym_spectral_norm"),
    ("linalg", "ldlt_factorize"),
    ("linalg", "ldlt_solve"),
    ("direct", "solve_qr"),
    ("direct", "solve_qr_eps"),
    ("direct", "solve_sm"),
    ("direct", "solve_aug"),
    ("iterative", "cg_base"),
    ("iterative", "cgls_i"),
    ("iterative", "cgls_eps"),
    ("iterative", "minres_augmented"),
    ("analysis", "relative_backward_error"),
    ("analysis", "linearized_backward_error"),
    ("analysis", "linearized_backward_error_eps"),
    ("analysis", "structured_cond_base"),
    ("analysis", "structured_cond_eps"),
    ("analysis", "forward_error_estimates"),
)

# Spans whose SolveOutcome feeds the _iterations and _capped counters.
KRYLOV = {"iterative.cg_base", "iterative.cgls_i", "iterative.cgls_eps",
          "iterative.minres_augmented"}


def span_name(module, attr):
    return f"{module}.{attr.split('.')[-1]}"


class Tracer:
    """Spans of wrapped calls plus Krylov outcome counters."""

    def __init__(self):
        self.spans = []  # [name, parent index, start ns, end ns]
        self.counts = {}
        self._stack = []
        self._saved = []

    def install(self, modules):
        """Wrap every TRACED function; `modules` maps short name to module."""
        for mod_name, attr in TRACED:
            owner = modules[mod_name]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            fn = getattr(owner, leaf)
            self._saved.append((owner, leaf, fn))
            setattr(owner, leaf, self._wrap(span_name(mod_name, attr), fn))

    def uninstall(self):
        while self._saved:
            owner, leaf, fn = self._saved.pop()
            setattr(owner, leaf, fn)

    def _wrap(self, name, fn):
        counts = self.counts
        krylov = name in KRYLOV

        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if krylov:
                for key, add in (("_iterations", result.iterations),
                                 ("_capped",
                                  result.status == "max_iterations")):
                    counts[name + key] = counts.get(name + key, 0) + add
            return result

        return wrapper

    @contextlib.contextmanager
    def root(self, modules, name):
        """Trace the body as one root span, with the wrappers installed."""
        self.install(modules)
        try:
            with self.span(name):
                yield
        finally:
            self.uninstall()

    @contextlib.contextmanager
    def span(self, name):
        """One span around the body, child of the innermost open span."""
        idx = len(self.spans)
        self.spans.append([name, self._stack[-1] if self._stack else -1,
                           time.perf_counter_ns(), 0])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][3] = time.perf_counter_ns()

    def self_times(self, root):
        """Seconds of self time and call counts per span name.

        Only spans under root spans named `root` count; the roots
        themselves are left out.
        """
        n = len(self.spans)
        child_ns = [0] * n
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        root_of = [-1] * n
        for i, (name, parent, _, _) in enumerate(self.spans):
            root_of[i] = i if parent < 0 else root_of[parent]
        secs, calls = {}, {}
        for i, (name, parent, start, end) in enumerate(self.spans):
            if parent < 0 or self.spans[root_of[i]][0] != root:
                continue
            secs[name] = secs.get(name, 0.0) + (end - start - child_ns[i]) / 1e9
            calls[name] = calls.get(name, 0) + 1
        return secs, calls

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({
                "fields": ["name", "parent", "start_ns", "end_ns"],
                "spans": self.spans,
                "counts": self.counts,
            }, fh)
