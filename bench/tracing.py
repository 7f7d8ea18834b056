"""Spans around thermoform's public functions, installed from outside the package.

Each traced call records one span ``[name, start, end, parent, peak_bytes]``
in memory; nothing is written until the workload has finished. A function is
wrapped in every thermoform module that binds it (``rpf_eigendata`` lives in
both ``shifts`` and ``dimension``), so calls made through module globals are
seen as well. Per-letter hot paths such as ``Potential.value`` and
``natural_extension_step`` are deliberately left alone: a span there would
cost more than the work it measures.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import tracemalloc


def _add(counters: dict, key: str, value) -> None:
    counters[key] = counters.get(key, 0) + value


def _rpf(c, out, args, kwargs):
    _add(c, "shifts.rpf_eigendata.states", len(out.states))
    _add(c, "shifts.rpf_eigendata.nnz", int(out.matrix.nnz))
    # one matvec per power-iteration step, both sides
    _add(c, "shifts.rpf_eigendata.matvecs", int(out.iterations))


def _pressure(c, out, args, kwargs):
    _add(c, "shifts.pressure.levels", len(out.levels))


def _audit(c, out, args, kwargs):
    _add(c, "shifts.gibbs_audit.cylinders", sum(r.count for r in out.rows))


def _sample(c, out, args, kwargs):
    _add(c, "shifts.sample_forward.letters", len(out))


def _birkhoff(c, out, args, kwargs):
    _add(c, "dimension.lyapunov_birkhoff.walker_steps", out.n_steps * out.n_orbits)


def _cloud(c, out, args, kwargs):
    _add(c, "dimension.cloud.points", len(out))


def _local_dim(c, out, args, kwargs):
    _add(c, "dimension.local_dimension.centers_used", int(out.n_centers))


def _identity(c, out, args, kwargs):
    size = args[1] if len(args) > 1 else kwargs.get("sample_size", 10_000)
    _add(c, "beta.identity_check.samples", int(size))
    c["beta.identity_check.max_dev"] = max(c.get("beta.identity_check.max_dev", 0.0), out)


# (module, attribute, counter hook reading the return value)
TARGETS = (
    ("shifts", "pressure", _pressure),
    ("shifts", "summability_report", None),
    ("shifts", "rpf_eigendata", _rpf),
    ("shifts", "gibbs_measure", None),
    ("shifts", "gibbs_audit", _audit),
    ("shifts", "sample_forward", _sample),
    ("gdms", "coding_point", None),
    ("gdms", "geometric_potential", None),
    ("dimension", "induced_cell_chain", None),
    ("dimension", "lyapunov_birkhoff", _birkhoff),
    ("dimension", "fiber_cloud", _cloud),
    ("dimension", "joint_cloud", _cloud),
    ("dimension", "local_dimension", _local_dim),
    ("dimension", "temperature", None),
    ("dimension", "hd_limit_set", None),
    ("beta", "analyze", None),
    ("beta", "identity_check", _identity),
    ("cli", "main", None),
)

# Spans whose tracemalloc peak is taken when they are top level (no open
# parent span); tracemalloc runs only inside them.
PEAK_SPANS = frozenset({"dimension.ChainOrbit", "dimension.fiber_cloud", "dimension.joint_cloud"})

MODULES = ("shifts", "gdms", "dimension", "beta", "cli")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict = {}
        self._stack: list[int] = []

    def _wrap(self, name: str, fn, hook):
        spans, stack, counters = self.spans, self._stack, self.counters
        track_peak = name in PEAK_SPANS
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            peak = track_peak and not stack
            stack.append(len(spans))
            spans.append(rec)
            if peak:
                tracemalloc.start()
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
                if peak:
                    rec[4] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            if hook is not None:
                hook(counters, out, args, kwargs)
            return out

        return traced

    def install(self) -> None:
        """Wrap every target at each thermoform module that binds it."""
        loaded = [m for n, m in sys.modules.items() if n.startswith("thermoform.")]
        for mod_name, attr, hook in TARGETS:
            orig = getattr(sys.modules[f"thermoform.{mod_name}"], attr)
            wrapped = self._wrap(f"{mod_name}.{attr}", orig, hook)
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)
        chain = sys.modules["thermoform.dimension"].ChainOrbit
        chain.__init__ = self._wrap("dimension.ChainOrbit", chain.__init__, None)

    def summary(self) -> dict:
        """Per-function and per-module busy/self time, calls, peaks and counters."""
        spans = self.spans
        n = len(spans)
        dur = [s[2] - s[1] for s in spans]
        child = [0.0] * n
        for i, s in enumerate(spans):
            if s[3] >= 0:
                child[s[3]] += dur[i]
        out: dict = dict(self.counters)
        for mod in MODULES:
            out[f"{mod}.busy_s"] = 0.0
            out[f"{mod}.self_s"] = 0.0
        for i, s in enumerate(spans):
            name = s[0]
            mod = name.split(".", 1)[0]
            own_name = own_mod = True  # outermost span of this name / module?
            p = s[3]
            while p >= 0 and (own_name or own_mod):
                pname = spans[p][0]
                own_name &= pname != name
                own_mod &= pname.split(".", 1)[0] != mod
                p = spans[p][3]
            _add(out, f"{name}.calls", 1)
            _add(out, f"{name}.self_s", dur[i] - child[i])
            _add(out, f"{mod}.self_s", dur[i] - child[i])
            if own_name:
                _add(out, f"{name}.busy_s", dur[i])
            if own_mod:
                _add(out, f"{mod}.busy_s", dur[i])
            if name in PEAK_SPANS and s[4]:
                key = f"{name}.peak_mb"
                out[key] = max(out.get(key, 0.0), s[4] / 2**20)
        steps = out.get("dimension.lyapunov_birkhoff.walker_steps", 0)
        if steps:
            out["dimension.lyapunov_birkhoff.ns_per_walker_step"] = (
                out["dimension.lyapunov_birkhoff.busy_s"] / steps * 1e9
            )
        out["trace.spans"] = n
        return out

    def write(self, path) -> None:
        """One JSON array per line: name, start and end (s), parent index, peak bytes."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
