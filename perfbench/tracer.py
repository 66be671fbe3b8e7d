"""Spans and counters around pgh's public functions, installed from outside
the package so that nothing under src/ changes.

Every public function of the seven modules gets a span: call count,
inclusive time (outermost call of a name only, so recursion is not counted
twice) and self time (duration minus the time of child spans).  The
element arithmetic of `PcPresentation` runs millions of times per pass, so
it is counted per method and timed in aggregate: only the outermost
arithmetic call is timed, and that time is subtracted from the enclosing
span as child time.
"""

import contextlib
import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

MODULES = ("pcp", "snf", "homology", "capability", "catalog", "verify", "cli")
ARITH = ("mult", "inv", "pow", "commutator", "collect", "conjugate")
CATALOG_IO = ("serialize", "parse", "load")


class AliasError(RuntimeError):
    """A wrapped function is still reachable unwrapped from a pgh module."""


def _pgh_modules():
    return [m for name, m in sorted(sys.modules.items())
            if name == "pgh" or name.startswith("pgh.")]


def _walk(obj, where, skip, seen):
    """Functions reachable from `obj` through containers, default arguments,
    closures and the namespaces of pgh classes; `skip` holds the ids of
    the wrappers, whose closures hold the originals on purpose."""
    if id(obj) in seen or id(obj) in skip:
        return
    seen.add(id(obj))
    if isinstance(obj, (staticmethod, classmethod)):
        obj = obj.__func__
    if inspect.isfunction(obj):
        yield where, obj
        inner = list(enumerate(obj.__defaults__ or ()))
        inner += list((obj.__kwdefaults__ or {}).items())
        for i, cell in enumerate(obj.__closure__ or ()):
            try:
                inner.append((f"<closure {i}>", cell.cell_contents))
            except ValueError:      # an empty cell
                pass
        for key, value in inner:
            yield from _walk(value, f"{where}:{key}", skip, seen)
    elif isinstance(obj, (list, tuple, set, frozenset)):
        for i, value in enumerate(obj):
            yield from _walk(value, f"{where}[{i}]", skip, seen)
    elif isinstance(obj, dict):
        for key, value in obj.items():
            yield from _walk(value, f"{where}[{key!r}]", skip, seen)
    elif isinstance(obj, type) and obj.__module__.startswith("pgh"):
        for key, value in vars(obj).items():
            yield from _walk(value, f"{where}.{key}", skip, seen)


def _reachable_functions(skip):
    seen = set()
    for mod in _pgh_modules():
        for attr, obj in vars(mod).items():
            if not attr.startswith("__") and not inspect.ismodule(obj):
                yield from _walk(obj, f"{mod.__name__}.{attr}", skip, seen)


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.active = Counter()
        self.stack = []          # child time of each open span
        self.in_arith = False
        self.arith_s = 0.0
        self.snf_cells = 0
        self.snf_max_cells = 0
        self.relation_rows = 0
        self.consistent = 0
        self.epicenter_center_s = 0.0
        self.output_bytes = 0

    # -- span bookkeeping --------------------------------------------------

    def _open(self, name, keys):
        self.calls[name] += 1
        for k in keys:
            self.active[k] += 1
        frame = [0.0]
        self.stack.append(frame)
        return frame, time.perf_counter()

    def _close(self, name, keys, frame, t0):
        dt = time.perf_counter() - t0
        self.stack.pop()
        if self.stack:
            self.stack[-1][0] += dt
        self.self_s[name] += dt - frame[0]
        for k in keys:
            self.active[k] -= 1
            if not self.active[k]:
                self.incl_s[k] += dt
        return dt

    @contextlib.contextmanager
    def region(self, name):
        """A span around the benchmark's own code."""
        frame, t0 = self._open(name, (name,))
        try:
            yield
        finally:
            self._close(name, (name,), frame, t0)

    def _span(self, name, fn, groups=(), before=None, after=None):
        keys = (name,) + groups

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before:
                before(args, kwargs)
            frame, t0 = self._open(name, keys)
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = self._close(name, keys, frame, t0)
            if after:
                after(result, dt)
            return result
        return wrapper

    def _arith(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            if self.in_arith:
                return fn(*args, **kwargs)
            self.in_arith = True
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self.in_arith = False
                self.arith_s += dt
                if self.stack:
                    self.stack[-1][0] += dt
        return wrapper

    # -- hooks that read sizes and outcomes --------------------------------

    def _snf_shape(self, args, kwargs):
        matrix = args[0]
        ncols = kwargs.get("ncols", args[1] if len(args) > 1 else None)
        if ncols is None:
            ncols = len(matrix[0]) if matrix else 0
        cells = len(matrix) * ncols
        self.snf_cells += cells
        self.snf_max_cells = max(self.snf_max_cells, cells)

    def _tails_rows(self, result, dt):
        self.relation_rows += len(result.relation_matrix)

    def _consistency(self, result, dt):
        self.consistent += bool(result)

    def _center(self, result, dt):
        if self.active["capability.epicenter"] and not self.active["pcp.center"]:
            self.epicenter_center_s += dt

    def _cli_output(self, result, dt):
        # the benchmark gives each cli.main call a fresh StringIO as stdout
        getvalue = getattr(sys.stdout, "getvalue", None)
        if getvalue:
            self.output_bytes += len(getvalue().encode())

    # -- installation ------------------------------------------------------

    def _wrap_function(self, module, attr, fn):
        name = f"{module}.{attr}"
        if module == "snf" and attr == "smith_normal_form":
            return self._span(name, fn, before=self._snf_shape)
        if module == "homology" and attr == "tails_system":
            return self._span(name, fn, after=self._tails_rows)
        if module == "pcp" and attr == "center":
            return self._span(name, fn, after=self._center)
        if module == "cli" and attr == "main":
            return self._span(name, fn, after=self._cli_output)
        if module == "catalog" and attr not in CATALOG_IO:
            return self._span(name, fn, groups=("catalog.build",))
        return self._span(name, fn)

    def install(self):
        """Wrap the public functions of the imported pgh package.

        Every attribute of every pgh module that is an original function
        object is replaced, which covers `from .pcp import center` aliases
        and function-local imports (they read the module attribute when the
        function runs).  Raises AliasError if an original is still reachable
        some other way: from a container, a default argument, a closure or
        a class namespace in a pgh module.
        """
        wrappers = {}
        for short in MODULES:
            mod = sys.modules[f"pgh.{short}"]
            for attr, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[obj] = self._wrap_function(short, attr, obj)
        for mod in _pgh_modules():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])

        cls = sys.modules["pgh.pcp"].PcPresentation
        for attr in ARITH:
            orig = vars(cls)[attr]
            wrappers[orig] = self._arith(f"pcp.{attr}", orig)
            setattr(cls, attr, wrappers[orig])
        for attr, name, after in (("__init__", "pcp.PcPresentation", None),
                                  ("is_consistent", "pcp.is_consistent",
                                   self._consistency)):
            orig = vars(cls)[attr]
            wrappers[orig] = self._span(name, orig, after=after)
            setattr(cls, attr, wrappers[orig])

        skip = {id(w) for w in wrappers.values()}
        left = [where for where, obj in _reachable_functions(skip)
                if obj in wrappers]
        if left:
            raise AliasError("unwrapped aliases: " + ", ".join(left))

    # -- derived metrics ---------------------------------------------------

    def module_self_s(self, module):
        total = sum((v for k, v in self.self_s.items()
                     if k.split(".", 1)[0] == module), 0.0)
        if module == "pcp":
            total += self.arith_s
        return total

    def traced_s(self):
        return sum(v for k, v in self.incl_s.items() if k.startswith("bench."))


def _calls(name):
    return lambda tr, ctx: tr.calls[name]


def _self(name):
    return lambda tr, ctx: tr.self_s[name]


def _incl(name):
    return lambda tr, ctx: tr.incl_s[name]


def _module(module):
    return lambda tr, ctx: tr.module_self_s(module)


def _coverage(tr, ctx):
    return sum(tr.module_self_s(m) for m in MODULES) / tr.traced_s()


# (name, unit, better, value from the tracer and the run's context)
PER_LAYER = (
    ("pcp.arith_calls", "count", "lower",
     lambda tr, ctx: sum(tr.calls[f"pcp.{a}"] for a in ARITH)),
    ("pcp.commutator_calls", "count", "lower", _calls("pcp.commutator")),
    ("pcp.inv_calls", "count", "lower", _calls("pcp.inv")),
    ("pcp.arith_self_s", "s", "lower", lambda tr, ctx: tr.arith_s),
    ("pcp.presentations_built", "count", "lower", _calls("pcp.PcPresentation")),
    ("pcp.consistent_ratio", "ratio", "higher",
     lambda tr, ctx: tr.consistent / max(tr.calls["pcp.is_consistent"], 1)),
    ("pcp.consistency_s", "s", "lower", _incl("pcp.is_consistent")),
    ("pcp.center_calls", "count", "lower", _calls("pcp.center")),
    ("pcp.center_self_s", "s", "lower", _self("pcp.center")),
    ("pcp.closure_calls", "count", "lower", _calls("pcp.subgroup_closure")),
    ("pcp.closure_self_s", "s", "lower", _self("pcp.subgroup_closure")),
    ("pcp.derived_calls", "count", "lower", _calls("pcp.derived_subgroup")),
    ("pcp.structure_stats_calls", "count", "lower", _calls("pcp.structure_stats")),
    ("pcp.abelian_invariants_calls", "count", "lower",
     _calls("pcp.abelian_invariants")),
    ("pcp.abelian_invariants_self_s", "s", "lower",
     _self("pcp.abelian_invariants")),
    ("pcp.quotient_calls", "count", "lower", _calls("pcp.quotient")),
    ("pcp.quotient_self_s", "s", "lower", _self("pcp.quotient")),
    ("pcp.self_total_s", "s", "lower", _module("pcp")),
    ("capability.epicenter_calls", "count", "lower",
     _calls("capability.epicenter")),
    ("capability.epicenter_s", "s", "lower", _incl("capability.epicenter")),
    ("capability.epicenter_center_s", "s", "lower",
     lambda tr, ctx: tr.epicenter_center_s),
    ("capability.crosscheck_s", "s", "lower",
     _incl("capability.epicenter_crosscheck")),
    ("capability.self_total_s", "s", "lower", _module("capability")),
    ("snf.calls", "count", "lower", _calls("snf.smith_normal_form")),
    ("snf.self_s", "s", "lower", _module("snf")),
    ("snf.check_s", "s", "lower", _incl("snf.mat_mul")),
    ("snf.cells", "count", "lower", lambda tr, ctx: tr.snf_cells),
    ("snf.max_cells", "count", "lower", lambda tr, ctx: tr.snf_max_cells),
    ("homology.tails_calls", "count", "lower", _calls("homology.tails_system")),
    ("homology.tails_self_s", "s", "lower", _self("homology.tails_system")),
    ("homology.relation_rows", "count", "lower", lambda tr, ctx: tr.relation_rows),
    ("homology.stem_cover_calls", "count", "lower", _calls("homology.stem_cover")),
    ("homology.stem_cover_self_s", "s", "lower", _self("homology.stem_cover")),
    ("homology.be_sequence_s", "s", "lower", _incl("homology.be_sequence")),
    ("homology.thm25_s", "s", "lower", _incl("homology.thm25_check")),
    ("homology.self_total_s", "s", "lower", _module("homology")),
    ("catalog.parse_calls", "count", "lower", _calls("catalog.parse")),
    ("catalog.parse_s", "s", "lower", _incl("catalog.parse")),
    ("catalog.build_s", "s", "lower", _incl("catalog.build")),
    ("catalog.self_total_s", "s", "lower", _module("catalog")),
    ("verify.report_calls", "count", "lower", _calls("verify.report")),
    ("verify.report_self_s", "s", "lower", _self("verify.report")),
    ("verify.family_match_s", "s", "lower", _incl("verify.family_match")),
    ("verify.conditions_s", "s", "lower",
     _incl("verify.check_attainer_conditions")),
    ("verify.quotient_attainment_s", "s", "lower",
     _incl("verify.check_quotient_attainment")),
    ("verify.sweep_s", "s", "lower", _incl("verify.sweep_classification")),
    ("verify.self_total_s", "s", "lower", _module("verify")),
    ("cli.main_calls", "count", "lower", _calls("cli.main")),
    ("cli.main_self_s", "s", "lower", _module("cli")),
    ("cli.output_bytes", "bytes", "lower", lambda tr, ctx: tr.output_bytes),
    ("trace.overhead_ratio", "ratio", "lower",
     lambda tr, ctx: tr.traced_s() / ctx["untraced_s"]),
    ("trace.coverage_ratio", "ratio", "higher", _coverage),
)


def per_layer_metrics(tr, ctx):
    return {name: {"value": get(tr, ctx), "unit": unit}
            for name, unit, _, get in PER_LAYER}
