"""Outside-in tracer for the zetasteps package.

Every public function of the seven layer modules (plus the one private
theta helper that `evaluators` imports from `symmetry`) is wrapped from the
outside; `src/` is never edited.  A wrapper has to replace the function
wherever a reference to it lives, because `from .x import f` copies `f` into
each consumer module and a default argument such as `z=rs_z` captures it when
the consumer is defined.  `install` therefore patches

* the attribute in every loaded `zetasteps*` module that holds the original,
* the `__defaults__` / `__kwdefaults__` of every function in those modules.

Each wrapped call is a span.  A module's self time is its spans' durations
minus the time covered by their child spans, so the seven `<module>.self_s`
values plus the untraced remainder add up to the traced pass.  A function
that does not exist any more is recorded as absent and its metrics read 0.
"""

from __future__ import annotations

import sys
import time
import types

import numpy as np

MODULES = ("cli", "export", "zeros", "evaluators", "symmetry", "steps", "ddmath")

TRACED = {
    "ddmath": ("log_table", "dd_log", "phase_from_dd_log"),
    "steps": ("partial_sum", "reduced_phase", "step_term", "angle_diffs"),
    "symmetry": (
        "frame_of", "rs_theta", "rs_theta_mod", "_theta_mod_unchecked", "big_q",
        "center_point", "pendant_offset", "conj_region", "conj_sum_direct",
        "conj_sum_predicted", "jacobi_g",
    ),
    "evaluators": (
        "eval_reference", "eval_em_paper", "eval_symmetric", "rs_remainder",
        "rs_z", "zeta_on_line", "z_reference",
    ),
    "zeros": (
        "gram_point", "zero_count_main", "scan_z_sign_changes", "refine_zero",
        "find_zeros", "gram_offsets", "histogram",
    ),
    "export": (
        "write_rows", "export_stepplot", "export_limacon", "export_surface",
        "export_loops", "export_zeros", "export_histogram", "export_gram",
        "export_conjugate",
    ),
    "cli": ("main", "build_parser"),
}


class Stat:
    __slots__ = ("calls", "s", "self_s", "extra")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.extra = {}

    def add(self, key, value):
        self.extra[key] = self.extra.get(key, 0) + value


class Tracer:
    def __init__(self):
        self.stats = {}
        self.module_self = dict.fromkeys(MODULES, 0.0)
        self.absent = []
        self.originals = {}
        self.wrappers = {}
        self.gram_hits_at_start = 0
        self._stack = [0.0]
        self._t0 = None
        self._wall = 0.0

    # -- recording -------------------------------------------------------
    def _close(self, module, stat, t0):
        dt = time.perf_counter() - t0
        child = self._stack.pop()
        stat.calls += 1
        stat.s += dt
        stat.self_s += dt - child
        self.module_self[module] += dt - child
        self._stack[-1] += dt
        return dt

    def _wrap(self, module, name, fn):
        key = f"{module}.{name}"
        stat = self.stats[key] = Stat()
        hook = _HOOKS.get(key)
        tracer = self

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            tracer._stack.append(0.0)
            result = None
            try:
                if key == "export.write_rows":
                    args, kwargs = tracer._timed_rows_args(args, kwargs)
                result = fn(*args, **kwargs)
                return result
            finally:
                dt = tracer._close(module, stat, t0)
                if hook is not None:
                    hook(tracer, stat, args, kwargs, result, dt)

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        wrapper.__wrapped__ = fn
        return wrapper

    def _timed_rows_args(self, args, kwargs):
        if "rows" in kwargs:
            kwargs = dict(kwargs, rows=self._timed_rows(kwargs["rows"]))
        elif len(args) >= 3:
            args = args[:2] + (self._timed_rows(args[2]),) + args[3:]
        return args, kwargs

    def _timed_rows(self, rows):
        """Time the exporter generator's `next` as an `export` span."""
        stat = self.stats.setdefault("export.gen", Stat())
        it = iter(rows)
        while True:
            t0 = time.perf_counter()
            self._stack.append(0.0)
            try:
                row = next(it)
            except StopIteration:
                return
            finally:
                self._close("export", stat, t0)
            yield row

    def start(self):
        self._stack = [0.0]
        self._t0 = time.perf_counter()

    def stop(self):
        self._wall = time.perf_counter() - self._t0
        return self._wall

    # -- reporting -------------------------------------------------------
    def metrics(self):
        def st(key):
            return self.stats.get(key) or Stat()

        def per(num, den, scale=1.0):
            return num / den * scale if den else 0.0

        m = {f"{mod}.self_s": self.module_self[mod] for mod in MODULES}
        lt = st("ddmath.log_table")
        ph = st("ddmath.phase_from_dd_log")
        dl = st("ddmath.dd_log")
        m["ddmath.log_table.s"] = lt.s
        m["ddmath.log_table.entries"] = lt.extra.get("entries", 0)
        m["ddmath.phase.terms"] = ph.extra.get("terms", 0)
        m["ddmath.phase.ns_per_term"] = per(ph.s, ph.extra.get("terms", 0), 1e9)
        m["ddmath.dd_log.calls"] = dl.calls
        m["ddmath.dd_log.s"] = dl.s

        ps = st("steps.partial_sum")
        rp = st("steps.reduced_phase")
        m["steps.partial_sum.calls"] = ps.calls
        m["steps.partial_sum.terms"] = ps.extra.get("terms", 0)
        m["steps.partial_sum.us_per_call"] = per(ps.s, ps.calls, 1e6)
        m["steps.reduced_phase.calls"] = rp.calls
        m["steps.reduced_phase.s"] = rp.s

        fo = st("symmetry.frame_of")
        th = st("symmetry.rs_theta")
        bq = st("symmetry.big_q")
        cp = st("symmetry.center_point")
        m["symmetry.frame_of.calls"] = fo.calls
        m["symmetry.frame_of.us_per_call"] = per(fo.s, fo.calls, 1e6)
        m["symmetry.rs_theta.calls"] = th.calls
        m["symmetry.rs_theta.us_per_call"] = per(th.s, th.calls, 1e6)
        m["symmetry.big_q.calls"] = bq.calls
        m["symmetry.big_q.s"] = bq.s
        m["symmetry.center_point.calls"] = cp.calls
        m["symmetry.center_point.s"] = cp.s

        rz = st("evaluators.rs_z")
        zr = st("evaluators.z_reference")
        er = st("evaluators.eval_reference")
        em = st("evaluators.eval_em_paper")
        m["evaluators.rs_z.calls"] = rz.calls
        m["evaluators.rs_z.us_per_call"] = per(rz.s, rz.calls, 1e6)
        m["evaluators.rs_remainder.calls"] = st("evaluators.rs_remainder").calls
        m["evaluators.z_reference.calls"] = zr.calls
        m["evaluators.z_reference.ms_per_call"] = per(zr.s, zr.calls, 1e3)
        m["evaluators.eval_reference.calls"] = er.calls
        m["evaluators.eval_reference.terms"] = er.extra.get("terms", 0)
        m["evaluators.eval_em_paper.calls"] = em.calls
        m["evaluators.eval_em_paper.s"] = em.s

        fz = st("zeros.find_zeros")
        sc = st("zeros.scan_z_sign_changes")
        rf = st("zeros.refine_zero")
        gp = st("zeros.gram_point")
        zeros = fz.extra.get("zeros", 0)
        brackets = sc.extra.get("brackets", 0)
        m["zeros.zeros"] = zeros
        m["zeros.brackets"] = brackets
        m["zeros.yield"] = per(zeros, brackets)
        m["zeros.rs_z_per_zero"] = per(rz.calls, zeros)
        m["zeros.oracle_per_zero"] = per(zr.calls, zeros)
        m["zeros.scan.s"] = sc.s
        m["zeros.refine_rs.s"] = rf.extra.get("rs_s", 0.0)
        m["zeros.refine_oracle.s"] = rf.extra.get("oracle_s", 0.0)
        m["zeros.gram_point.calls"] = gp.calls
        m["zeros.gram_point.hit_ratio"] = per(gp.extra.get("hits", 0), gp.calls)

        wr = st("export.write_rows")
        gen = st("export.gen")
        rows = wr.extra.get("rows", 0)
        m["export.rows"] = rows
        m["export.gen.s"] = gen.s
        m["export.write.s"] = wr.s - gen.s
        m["export.rows_per_s"] = per(rows, wr.s)

        m["cli.main.self_s"] = st("cli.main").self_s
        return m

    def untraced_s(self):
        """Time of the traced pass spent outside every span."""
        return self._wall - self._stack[0]


# -- per-function counters read from arguments and results ----------------

def _log_table_hook(tracer, stat, args, kwargs, result, dt):
    try:
        entries = len(result[0]) - 1
    except (TypeError, IndexError):
        return
    stat.extra["entries"] = max(stat.extra.get("entries", 0), entries)


def _phase_hook(tracer, stat, args, kwargs, result, dt):
    lh = args[1] if len(args) > 1 else kwargs.get("lh")
    stat.add("terms", int(np.size(lh)))


def _partial_sum_hook(tracer, stat, args, kwargs, result, dt):
    if len(args) >= 2:
        stat.add("terms", max(0, int(args[1]) - int(args[0]) + 1))


def _eval_reference_hook(tracer, stat, args, kwargs, result, dt):
    if result is not None:
        stat.add("terms", getattr(result, "terms_used", 0))


def _find_zeros_hook(tracer, stat, args, kwargs, result, dt):
    if result is not None:
        stat.add("zeros", len(result))


def _scan_hook(tracer, stat, args, kwargs, result, dt):
    if result is not None:
        stat.add("brackets", len(result))


def _refine_hook(tracer, stat, args, kwargs, result, dt):
    z = kwargs.get("z", args[2] if len(args) > 2 else None)
    oracle = tracer.wrappers.get("evaluators.z_reference")
    original = tracer.originals.get("evaluators.z_reference")
    route = "oracle_s" if z is not None and z in (oracle, original) else "rs_s"
    stat.add(route, dt)


def _gram_point_hook(tracer, stat, args, kwargs, result, dt):
    info = getattr(tracer.originals["zeros.gram_point"], "cache_info", None)
    if info is not None:
        stat.extra["hits"] = info().hits - tracer.gram_hits_at_start


def _write_rows_hook(tracer, stat, args, kwargs, result, dt):
    if isinstance(result, int):
        stat.add("rows", result)


_HOOKS = {
    "ddmath.log_table": _log_table_hook,
    "ddmath.phase_from_dd_log": _phase_hook,
    "steps.partial_sum": _partial_sum_hook,
    "evaluators.eval_reference": _eval_reference_hook,
    "zeros.find_zeros": _find_zeros_hook,
    "zeros.scan_z_sign_changes": _scan_hook,
    "zeros.refine_zero": _refine_hook,
    "zeros.gram_point": _gram_point_hook,
    "export.write_rows": _write_rows_hook,
}


def install() -> Tracer:
    """Wrap every traced function of the loaded zetasteps package."""
    tracer = Tracer()
    pkg_modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "zetasteps" or n.startswith("zetasteps.")) and m is not None]
    replace = {}
    for mod_name, names in TRACED.items():
        module = sys.modules.get(f"zetasteps.{mod_name}")
        for name in names:
            fn = getattr(module, name, None) if module is not None else None
            if not callable(fn):
                tracer.absent.append(f"{mod_name}.{name}")
                continue
            wrapped = tracer._wrap(mod_name, name, fn)
            tracer.originals[f"{mod_name}.{name}"] = fn
            tracer.wrappers[f"{mod_name}.{name}"] = wrapped
            replace[id(fn)] = wrapped
    info = getattr(tracer.originals.get("zeros.gram_point"), "cache_info", None)
    if info is not None:
        tracer.gram_hits_at_start = info().hits

    for module in pkg_modules:
        for attr, value in list(vars(module).items()):
            if id(value) in replace and value is not replace[id(value)]:
                setattr(module, attr, replace[id(value)])
    # Default arguments bound at definition time, e.g. refine_zero(z=rs_z).
    # Module attributes now hold the wrappers; reach each original through
    # its wrapper's __wrapped__.
    for module in pkg_modules:
        for value in list(vars(module).values()):
            for fn in (value, getattr(value, "__wrapped__", None)):
                if isinstance(fn, types.FunctionType):
                    _patch_defaults(fn, replace)
    return tracer


def _patch_defaults(fn, replace):
    if fn.__defaults__ and any(id(d) in replace for d in fn.__defaults__):
        fn.__defaults__ = tuple(replace.get(id(d), d) for d in fn.__defaults__)
    if fn.__kwdefaults__ and any(id(d) in replace for d in fn.__kwdefaults__.values()):
        fn.__kwdefaults__ = {k: replace.get(id(d), d) for k, d in fn.__kwdefaults__.items()}
