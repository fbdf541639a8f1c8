"""Outside-in tracer for the zmf layers.

The tracer wraps library functions at run time, in every zmf module that
binds them, so the library itself needs no tracing code.  Each wrapped call
is either

* a span: name, id, parent id, start and end are kept in memory and written
  out when the run ends, or
* an aggregate (hot leaves such as ``log_gamma`` and the quadrature
  integrands): only a call count and a total time are kept.

Self time is a call's duration minus the time of the wrapped calls it made.
Integrand time inside a tanh-sinh run is charged to the layer that called the
quadrature, so ``quadutil.ts`` self time is only node generation and
summation.

A hook whose target name no longer exists is listed in ``missing`` and its
metrics are reported as ``None``, never as 0, so a refactor that removes a
wrapped name cannot make a counter drop silently to zero.
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass, field

# (key, defining module, attribute names, kind).  Kinds: "span" records a
# span per call; "leaf" aggregates; "quad", "ode" and "mc" are spans that
# also read counters from their arguments or results.
HOOKS = (
    ("gamma.log_gamma", "zmf.gamma", ("log_gamma",), "leaf"),
    ("hyper.pfq", "zmf.hyper", ("pfq",), "span"),
    ("hyper.near_unit", "zmf.hyper", ("_sum_near_unit",), "span"),
    ("hyper.continued", "zmf.hyper", ("pfq_continued",), "span"),
    ("hyper.ode", "zmf.hyper", ("solve_ivp",), "ode"),
    ("meijer.mb", "zmf.meijer", ("meijer_mb",), "span"),
    ("meijer.triple", "zmf.meijer", ("meijer_triple_integral",), "span"),
    ("quadutil.ts", "zmf.quadutil", ("_ts_run",), "quad"),
    ("oracle.torus", "zmf.oracle", ("torus_quadrature",), "span"),
    ("oracle.torus.t1", "zmf.oracle", ("_t1",), "span"),
    ("oracle.mc", "zmf.oracle", ("monte_carlo",), "mc"),
    ("oracle.density", "zmf.oracle", ("density_quadrature",), "span"),
    ("density.g_recursion", "zmf.density", ("g_recursion",), "span"),
    ("density.g_recursion_impl", "zmf.density", ("_g_recursion_impl",), "span"),
    ("density.p_r", "zmf.density", ("_p_r_arr",), "leaf"),
    ("analysis.zeros", "zmf.analysis", ("find_zeros_w1",), "span"),
    ("analysis.box", "zmf.analysis", ("count_zeros_box",), "span"),
    ("analysis.fe", "zmf.analysis", ("check_fe_light", "check_fe_heavy"), "span"),
    ("analysis.mahler", "zmf.analysis", ("mahler_w2_routes", "mahler_w3_routes"), "span"),
    ("zmf.w", "zmf.zmf", ("w",), "span"),
    ("zmf.odd_limit", "zmf.zmf", ("_odd_limit",), "span"),
    (
        "zmf.closed",
        "zmf.zmf",
        ("w1", "w2", "w2_odd", "w3", "w_light", "w_real_s", "_w_zero"),
        "span",
    ),
)

# Names that recurse through their own module global: wrapping that binding
# would count one outside call several times.
_SKIP_DEFINING_MODULE = {"log_gamma"}

LAYERS = ("gamma", "hyper", "meijer", "quadutil", "oracle", "density", "analysis", "zmf")
ROOT = "bench.task"


@dataclass
class Stat:
    calls: int = 0
    self_s: float = 0.0
    counters: dict = field(default_factory=dict)

    def add(self, name: str, n: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + n


class Tracer:
    """Collects spans and aggregates while installed; see module docstring."""

    def __init__(self):
        self.stats = {key: Stat() for key, *_ in HOOKS}
        self.stats[ROOT] = Stat()
        self.spans = []
        self.missing = []
        self._stack = []
        self._next_id = 0
        self._patches = []

    # -- installation --------------------------------------------------
    def install(self) -> None:
        mods = [m for name, m in sorted(sys.modules.items())
                if (name == "zmf" or name.startswith("zmf.")) and m is not None]
        for key, modname, attrs, kind in HOOKS:
            home = importlib.import_module(modname)
            origs = {attr: getattr(home, attr, None) for attr in attrs}
            gone = [f"{modname}.{a}" for a, fn in origs.items() if fn is None]
            if gone:
                self.missing.extend(gone)
                self.stats[key] = None
                continue
            for attr, orig in origs.items():
                wrapper = self._wrap(key, kind, orig)
                for mod in mods:
                    if mod is home and attr in _SKIP_DEFINING_MODULE:
                        continue
                    for name, val in list(vars(mod).items()):
                        if val is orig:
                            self._patches.append((mod, name, orig))
                            setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        for mod, name, orig in reversed(self._patches):
            setattr(mod, name, orig)
        self._patches.clear()

    # -- recording -----------------------------------------------------
    def _enter(self, key: str):
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        frame = [key, 0.0, self._next_id, parent[2] if parent else 0]
        self._stack.append(frame)
        return frame, parent

    def _exit(self, frame, parent, t0: float, t1: float, span: bool, count: bool):
        self._stack.pop()
        dur = t1 - t0
        if parent is not None:
            parent[1] += dur
        st = self.stats[frame[0]]
        if count:
            st.calls += 1
        st.self_s += dur - frame[1]
        if span:
            self.spans.append((frame[0], frame[2], frame[3], t0, t1))

    def task(self, fn, *args):
        """Run one benchmark task under a root span."""
        frame, parent = self._enter(ROOT)
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self._exit(frame, parent, t0, time.perf_counter(), True, True)

    def _wrap(self, key: str, kind: str, fn):
        tracer = self
        perf = time.perf_counter

        if kind == "leaf":
            def leaf(*args, **kwargs):
                t0 = perf()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = perf() - t0
                    if tracer._stack:
                        tracer._stack[-1][1] += dur
                    st = tracer.stats[key]
                    st.calls += 1
                    st.self_s += dur
            return leaf

        def span(*args, **kwargs):
            if kind == "quad":
                caller = tracer._stack[-1][0] if tracer._stack else ROOT
                args = (tracer._integrand(caller, args[0]),) + args[1:]
            frame, parent = tracer._enter(key)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._exit(frame, parent, t0, perf(), True, True)
            st = tracer.stats[key]
            if kind == "quad":
                st.add("unconverged", 0 if out[2] else 1)
            elif kind == "ode":
                st.add("nfev", int(out.nfev))
            elif kind == "mc":
                cfg = args[1] if len(args) > 1 else kwargs.get("cfg")
                st.add("samples", cfg.samples if cfg is not None else _default_samples())
            return out
        return span

    def _integrand(self, caller: str, f):
        """Wrap a quadrature integrand: its time is charged to `caller`, and
        its node and level counts to both the quadrature and the caller."""
        tracer = self
        perf = time.perf_counter
        ts = self.stats["quadutil.ts"]
        owner = self.stats[caller]

        def integrand(x):
            frame, parent = tracer._enter(caller)
            t0 = perf()
            try:
                return f(x)
            finally:
                tracer._exit(frame, parent, t0, perf(), False, False)
                ts.add("nodes", len(x))
                ts.add("levels", 1)
                owner.add("nodes", len(x))
        return integrand

    # -- reporting -----------------------------------------------------
    def value(self, key: str, field_name: str):
        """calls, self_s or a counter of one hook; None when the hook is missing."""
        st = self.stats.get(key)
        if st is None:
            return None
        if field_name == "calls":
            return st.calls
        if field_name == "self_s":
            return st.self_s
        return st.counters.get(field_name, 0)

    def layer_self(self) -> dict:
        out = {layer: 0.0 for layer in LAYERS}
        out["bench"] = 0.0
        for key, st in self.stats.items():
            if st is None:
                continue
            layer = key.split(".")[0]
            out[layer if layer in out else "bench"] += st.self_s
        return out

    def counts(self) -> dict:
        """Every count the tracer holds, for the steadiness self-check."""
        out = {}
        for key, st in sorted(self.stats.items()):
            if st is None:
                out[key] = None
                continue
            out[f"{key}.calls"] = st.calls
            for name, n in sorted(st.counters.items()):
                out[f"{key}.{name}"] = n
        return out


def _default_samples() -> int:
    from zmf.types import QuadratureConfig

    return QuadratureConfig().samples
