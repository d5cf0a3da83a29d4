"""Span tracing for the traced benchmark run.

The tracer rebinds module attributes of the maxcurve package from outside:
every public function of gf, counting, action, ramification and catalog,
plus a few methods and cli.main, is replaced by a wrapper that records a
span (name, parent, start, end).  The `from .x import y` copies of those
functions held by other modules are rebound too, so calls between modules
are seen.  FieldSpec.pow and FieldSpec.mul only count calls: they run
hundreds of thousands of times per pass, and spans there would swamp the
time being measured.  Nothing under src/ is edited; `uninstall` restores
every binding.

Spans stay in memory; the worker writes them out when the run ends.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

LAYERS = ("gf", "counting", "action", "ramification", "catalog", "cli")
TRACED_MODULES = ("gf", "counting", "action", "ramification", "catalog")
SPAN_METHODS = {
    "gf": {"FieldSpec": ("tables", "generator_code", "subfield_codes")},
    "action": {"PlaceSet": ("fq_rational_ids", "t_zero_affine_count")},
}
COUNTED_METHODS = {"gf.FieldSpec.pow": "gf.scalar_pow_calls", "gf.FieldSpec.mul": "gf.scalar_mul_calls"}
# Per-entry lookups that delta_from_composition makes inside its own layer:
# spans there would double the tracing cost on the wide spectra and move no
# time between layers.
UNTRACED = {"ramification.i_sigma", "ramification.i_sigma_tau"}


def _family(family) -> str:
    return getattr(family, "value", family)


def _count_label(family, params, r, *args, **kwargs) -> str:
    return f".{_family(family)}.s{params.s}.r{r}"


def _spectrum_label(family, params, *args, **kwargs) -> str:
    return f".{_family(family)}.s{params.s}"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()
        self._stack = []

    def span(self, name, fn, label=None, on_result=None):
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            full = name if label is None else name + label(*args, **kwargs)
            stack = self._stack
            rec = [full, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(self.spans))
            self.spans.append(rec)
            rec[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def counter(self, key, fn):
        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _on_count(self, report) -> None:
        # the field order at this commit: every element is streamed
        self.counts["counting.elems_evaluated"] += getattr(report, "elements_evaluated", report.ell)

    def _on_spectrum(self, res) -> None:
        self.counts["catalog.records"] += len(res.records)
        self.counts["catalog.specs_swept"] += len(res.records) + len(res.invalid)

    def install(self, package) -> None:
        """Wrap the package's traced functions and rebind every module-level
        reference to them, including `from .x import y` copies."""
        import importlib

        mods = {name: importlib.import_module(f"{package}.{name}") for name in (*TRACED_MODULES, "cli")}
        hooks = {"counting.count_points": (_count_label, self._on_count),
                 "catalog.spectrum": (_spectrum_label, self._on_spectrum)}
        wrapped: dict[int, object] = {}
        for layer in TRACED_MODULES:
            mod = mods[layer]
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                if name in UNTRACED:
                    continue
                label, on_result = hooks.get(name, (None, None))
                wrapped[id(obj)] = self.span(name, obj, label, on_result)
        wrapped[id(mods["cli"].main)] = self.span("cli.main", mods["cli"].main)
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._rebind(mod, attr, wrapped[id(obj)])
        for layer, classes in SPAN_METHODS.items():
            for cls_name, methods in classes.items():
                cls = getattr(mods[layer], cls_name)
                for meth in methods:
                    self._rebind(cls, meth, self.span(f"{layer}.{cls_name}.{meth}", vars(cls)[meth]))
        for path, key in COUNTED_METHODS.items():
            layer, cls_name, meth = path.split(".")
            cls = getattr(mods[layer], cls_name)
            self._rebind(cls, meth, self.counter(key, vars(cls)[meth]))

    def _rebind(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(i for i in intervals if i[1] > i[0]):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval that its direct
    children cover."""
    children = defaultdict(list)
    for i, (_, parent, _, _) in enumerate(spans):
        children[parent].append(i)
    out = []
    for i, (_, _, t0, t1) in enumerate(spans):
        covered = union_length((max(spans[c][2], t0), min(spans[c][3], t1)) for c in children[i])
        out.append((t1 - t0) - covered)
    return out


def inclusive_times(spans) -> dict[str, float]:
    """Time per span name, counting only the outermost span of a name so
    that recursion is not counted twice."""
    out: dict[str, float] = defaultdict(float)
    for name, parent, t0, t1 in spans:
        p = parent
        while p != -1 and spans[p][0] != name:
            p = spans[p][1]
        if p == -1:
            out[name] += t1 - t0
    return out


def pass_metrics(spans, counts, pass_time: float) -> dict[str, float]:
    """Per-layer numbers of one traced pass (names as in PER_LAYER)."""
    selfs = self_times(spans)
    incl = inclusive_times(spans)
    calls = Counter(name for name, _, _, _ in spans)
    m: dict[str, float] = defaultdict(float)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = 0.0
    for (name, _, _, _), st in zip(spans, selfs):
        m[name.split(".", 1)[0] + ".self_s"] += st
        if name.startswith("counting.count_points."):
            m["counting.count_points_s" + name[len("counting.count_points"):]] += st
    for fn in ("build_places", "default_generators", "find_element_of_order", "verify_orbits",
               "stabilizer_subgroup_order"):
        m[f"action.{fn}_s"] = incl.get(f"action.{fn}", 0.0)
    for name, t in incl.items():
        if name.startswith("catalog.spectrum."):
            m["catalog.spectrum_s" + name[len("catalog.spectrum"):]] = t
    m["catalog.divisors_s"] = incl.get("catalog.divisors", 0.0)
    m["catalog.divisors_calls"] = calls["catalog.divisors"]
    m["action.element_order_calls"] = calls["action.element_order"]
    delta_calls = calls["ramification.delta_from_composition"]
    m["ramification.delta_from_composition_calls"] = delta_calls
    records, swept = counts["catalog.records"], counts["catalog.specs_swept"]
    m["ramification.delta_calls_per_record"] = delta_calls / records if records else 0.0
    m["catalog.records"] = records
    m["catalog.specs_swept"] = swept
    m["catalog.valid_ratio"] = records / swept if swept else 0.0
    elems = counts["counting.elems_evaluated"]
    m["counting.elems_evaluated"] = elems
    count_time = sum(t for name, t in incl.items() if name.startswith("counting.count_points."))
    m["counting.elems_per_s"] = elems / count_time if count_time else 0.0
    m["gf.scalar_pow_calls"] = counts["gf.scalar_pow_calls"]
    m["gf.scalar_mul_calls"] = counts["gf.scalar_mul_calls"]
    m["bench.self_s"] = pass_time - sum(t1 - t0 for _, parent, t0, t1 in spans if parent == -1)
    m["trace.spans"] = len(spans)
    return dict(m)
