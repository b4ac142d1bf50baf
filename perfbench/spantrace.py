"""Outside-in tracing of cusm functions.

Each traced function is wrapped in every ``cusm.*`` namespace that binds it,
matched by object identity: ``cli`` and ``train`` import library functions by
name, so patching only the defining module would miss their calls. A wrapper
records one span per call (name, start, end, parent span, op id). Spans stay
in memory until the run ends; every patched attribute is put back afterwards.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager

import numpy as np


def woodbury_solve_flops(factors, psi, dt) -> float:
    """Fixed real-flop count of the Woodbury solve, diagnostics excluded.

    Four N x r x B complex products (Phi^dag psi, Phi(.), Phi^dag y, P w), the
    N x r x r Gram product, and an r x r LU with B right-hand sides; one
    complex multiply-add is 8 real flops.
    """
    n, r = factors.phi.shape
    b = 1 if psi.ndim == 1 else psi.shape[1]
    return 8.0 * (4 * n * r * b + n * r * r + r * r * b) + 8.0 / 3.0 * r ** 3


# (span name, defining module, attribute, work counter or None). Several
# attributes may share one span name: "train.flatten" covers every
# flatten/unflatten pair.
TRACED = (
    ("cli.main", "cusm.cli", "main", None),
    ("cli._write_json", "cusm.cli", "_write_json", None),
    ("cli._write_csv", "cusm.cli", "_write_csv", None),
    ("train.train_on_task", "cusm.train", "train_on_task", None),
    ("train.adam_cosine", "cusm.train", "adam_cosine", None),
    ("train.flatten", "cusm.train", "flatten_model", None),
    ("train.flatten", "cusm.train", "unflatten_model", None),
    ("train.flatten", "cusm.train", "flatten_bundle", None),
    ("train.flatten", "cusm.train", "_cusm_flatten", None),
    ("train.flatten", "cusm.train", "_cusm_unflatten", None),
    ("train.flatten", "cusm.train", "_rosm_flatten", None),
    ("train.flatten", "cusm.train", "_rosm_unflatten", None),
    ("train._backward_full", "cusm.train", "_backward_full", None),
    ("train._lowrank_solve", "cusm.train", "_lowrank_solve", None),
    ("train._qr_projection_vjp", "cusm.train", "_qr_projection_vjp", None),
    ("train._cusm_batch_grad", "cusm.train", "_cusm_batch_grad", None),
    ("train._rosm_batch_grad", "cusm.train", "_rosm_batch_grad", None),
    ("dynamics.evolve_fixed_unitaries", "cusm.dynamics", "evolve_fixed_unitaries", None),
    ("dynamics.cayley_step_woodbury", "cusm.dynamics", "cayley_step_woodbury",
     woodbury_solve_flops),
    ("dynamics.interaction_picture_factors", "cusm.dynamics",
     "interaction_picture_factors", None),
    ("dynamics.evolve_full_model", "cusm.dynamics", "evolve_full_model", None),
    ("dynamics.materialize", "cusm.dynamics", "InteractionFactors.materialize", None),
    ("hamgen.mlp_forward_cached", "cusm.hamgen", "mlp_forward_cached", None),
    ("hamgen.mlp_backward", "cusm.hamgen", "mlp_backward", None),
    ("readout.project_measurement", "cusm.readout", "project_measurement", None),
    ("readout.born_probabilities", "cusm.readout", "born_probabilities", None),
    ("numerics.thin_qr_unique", "cusm.numerics", "thin_qr_unique", None),
    ("numerics.numerical_rank", "cusm.numerics", "numerical_rank", None),
    ("numerics.vec_hermitian", "cusm.numerics", "vec_hermitian", None),
    ("septask.make_task", "cusm.septask", "make_task", None),
    ("septask.build_exact_cusm", "cusm.septask", "build_exact_cusm", None),
    ("septask.softmax_rank_audit", "cusm.septask", "softmax_rank_audit", None),
    ("currents.midpoint_current", "cusm.currents", "midpoint_current", None),
)

SPAN_NAMES = tuple(dict.fromkeys(entry[0] for entry in TRACED))


def cusm_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "cusm" or name.startswith("cusm."))]


def self_times(start, end, parent) -> np.ndarray:
    """Span duration minus the part of its interval that child spans cover."""
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    out = end - start
    children: dict[int, list[int]] = {}
    for i, p in enumerate(parent):
        if p >= 0:
            children.setdefault(p, []).append(i)
    for p, kids in children.items():
        covered = 0.0
        cur_s = cur_e = None
        for k in sorted(kids, key=lambda i: start[i]):
            s, e = max(start[k], start[p]), min(end[k], end[p])
            if e <= s:
                continue
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            covered += cur_e - cur_s
        out[p] -= covered
    return out


class Tracer:
    """In-memory span recorder over the functions in TRACED.

    The bindings to patch are found once, when the tracer is made; each
    ``tracing()`` block patches them and puts the originals back on exit.
    """

    def __init__(self):
        self.name = []
        self.start = []
        self.end = []
        self.parent = []
        self.op = []
        self.op_id = -1
        self.flops: dict[str, float] = {}
        self.active = False
        self._stack: list[int] = []
        self._bindings: list[tuple] = []   # (owner, attribute, original, wrapper)
        modules = cusm_modules()
        for span, modname, path, work in TRACED:
            owner = sys.modules[modname]
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            original = vars(owner)[attr]
            wrapper = self._wrap(original, span, work)
            if classes:
                self._bindings.append((owner, attr, original, wrapper))
            else:
                self._bindings += [(m, a, original, wrapper) for m in modules
                                   for a, v in vars(m).items() if v is original]

    def _wrap(self, fn, span, work):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(tracer.start)
            tracer.name.append(span)
            tracer.parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.op.append(tracer.op_id)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            if work is not None:
                tracer.flops[span] = tracer.flops.get(span, 0.0) + work(*args, **kwargs)
            tracer._stack.append(idx)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end[idx] = time.perf_counter()
                tracer.start[idx] = t0
                tracer._stack.pop()

        return traced

    @contextmanager
    def tracing(self):
        """Patch every binding, record inside the block, restore on exit."""
        patched = []
        try:
            for owner, attr, original, wrapper in self._bindings:
                setattr(owner, attr, wrapper)
                patched.append((owner, attr, original))
            self.active = True
            yield self
        finally:
            self.active = False
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)

    @contextmanager
    def paused(self):
        """Call through without recording, e.g. while checking outputs."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def summary(self) -> dict:
        """Per span name: calls, total self time (s), median call duration (us)."""
        selfs = self_times(self.start, self.end, self.parent)
        dur = np.asarray(self.end) - np.asarray(self.start)
        names = np.asarray(self.name, dtype=object)
        out = {}
        for span in SPAN_NAMES:
            mask = names == span
            calls = int(mask.sum())
            out[span] = {
                "calls": calls,
                "self_s": float(selfs[mask].sum()) if calls else 0.0,
                "p50_us": float(np.median(dur[mask]) * 1e6) if calls else 0.0,
            }
        return out

    def write_csv(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("span,name,start_s,end_s,parent,op\n")
            for i in range(len(self.start)):
                fh.write(f"{i},{self.name[i]},{self.start[i]!r},{self.end[i]!r},"
                         f"{self.parent[i]},{self.op[i]}\n")
