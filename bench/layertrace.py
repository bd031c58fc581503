"""Per-layer timing of ultranorm from outside the program.

The tracer wraps the public functions of the nine ``ultranorm`` modules,
and the public methods (plus arithmetic dunders and ``__init__``) of the
classes they define.  A module name is a layer name: the time a wrapped
call spends outside other wrapped calls is that module's *self* time.

Names are imported by value all over the package (``distance_to_subspace``
lives in ``spaces`` but is called from ``metrics`` and ``extension``;
``cli`` holds ``sigma``, ``lambda_Q``, ... and a command table), so a
function is replaced in every ``ultranorm.*`` namespace, and in every
module-level dict, that holds the same object.  ``restore`` puts every
original back.  Nothing is stored per call: each key keeps a call count,
self time and raise count, which keeps the cost of tracing
``RationalFunction`` arithmetic at one counter update per call.

A function that a later version removes or renames simply has no key;
``layer_metrics`` then reports the metrics that name it as missing.
"""

from __future__ import annotations

import inspect
import sys
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

MODULES = ("cli", "serialization", "metrics", "extension", "spaces",
           "sections", "linalg", "fields", "adelic")

# Magnitude comparisons and products run on every norm evaluation; wrapping
# them would multiply the traced run time, so their cost stays with the
# caller.
SKIP_CLASSES = {"Magnitude"}
# Methods of these classes get a sub-layer prefix: fields.rf.<method>.
CLASS_PREFIX = {"RationalFunction": "rf"}
DUNDERS = {"__init__", "__add__", "__sub__", "__mul__", "__truediv__",
           "__neg__", "__pow__", "__radd__", "__rsub__", "__rmul__",
           "__rtruediv__"}
MARKER = "_ultranorm_bench_wrapper"


class Stat:
    __slots__ = ("calls", "self_time", "raised")

    def __init__(self):
        self.calls = 0
        self.self_time = 0.0
        self.raised = 0


def _package_modules() -> List[object]:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "ultranorm"
                                  or name.startswith("ultranorm."))]


def _targets() -> List[Tuple[str, object, str, Callable]]:
    """(key, owner class or None, attribute, function) for every wrapped
    callable.  Module-level functions have owner None."""
    out = []
    for short in MODULES:
        mod = sys.modules.get(f"ultranorm.{short}")
        if mod is None:
            continue
        for name, obj in sorted(vars(mod).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                out.append((f"{short}.{name}", None, name, obj))
            elif inspect.isclass(obj) and name not in SKIP_CLASSES:
                prefix = short + "." + (CLASS_PREFIX[name] + "."
                                        if name in CLASS_PREFIX else "")
                for attr, desc in sorted(vars(obj).items()):
                    if attr.startswith("_") and attr not in DUNDERS:
                        continue
                    fn = getattr(desc, "__func__", desc)
                    if inspect.isfunction(fn):
                        out.append((prefix + attr.strip("_"), obj, attr, fn))
    return out


class Tracer:
    """Install with ``install()``, run jobs, then ``restore()``."""

    def __init__(self):
        self.stats: Dict[str, Stat] = {}
        self._stack: List[float] = []
        self._undo: List[Tuple[object, object, object]] = []
        # observations behind the ratio and size metrics
        self.gauss_pairs: Dict[Tuple[int, int], object] = {}
        self.distance_work = 0
        self.smith_accepted = 0

    # -- hooks for metrics that need arguments or results ---------------

    def _observe_gauss(self, args, kwargs, result):
        metric = args[0]
        n = args[1] if len(args) > 1 else kwargs["n"]
        # keep the metric alive so its id is never reused within the run
        self.gauss_pairs[(id(metric), n)] = metric

    def _observe_distance(self, args, kwargs, result):
        space = args[0] if args else kwargs["space"]
        sub = args[2] if len(args) > 2 else kwargs["subspace_vectors"]
        self.distance_work += space.dim * len(sub)

    def _observe_smith(self, args, kwargs, result):
        rows = args[0] if args else kwargs["m"]
        if len(result) == len(rows) and all(d == 1 for d in result):
            self.smith_accepted += 1

    # -- wrapping --------------------------------------------------------

    def _wrap(self, key: str, fn: Callable) -> Callable:
        stat = self.stats.setdefault(key, Stat())
        stack = self._stack
        observe = {"metrics.gauss_space": self._observe_gauss,
                   "spaces.distance_to_subspace": self._observe_distance,
                   "linalg.smith_diagonal": self._observe_smith}.get(key)

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat.raised += 1
                raise
            finally:
                elapsed = perf_counter() - t0
                inner = stack.pop()
                stat.calls += 1
                stat.self_time += elapsed - inner
                if stack:
                    stack[-1] += elapsed
            if observe is not None:
                observe(args, kwargs, result)
            return result

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        setattr(wrapper, MARKER, True)
        return wrapper

    def _set(self, container, name, value) -> None:
        if isinstance(container, dict):
            self._undo.append((container, name, container[name]))
            container[name] = value
        else:
            self._undo.append((container, name, vars(container)[name]))
            setattr(container, name, value)

    def install(self) -> None:
        modules = _package_modules()
        for key, owner, attr, fn in _targets():
            wrapper = self._wrap(key, fn)
            if owner is not None:
                desc = vars(owner)[attr]
                if isinstance(desc, (classmethod, staticmethod)):
                    wrapper = type(desc)(wrapper)
                self._set(owner, attr, wrapper)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        self._set(mod, name, wrapper)
                    elif type(value) is dict:
                        for k, v in list(value.items()):
                            if v is fn:
                                self._set(value, k, wrapper)

    def restore(self) -> None:
        while self._undo:
            container, name, original = self._undo.pop()
            if isinstance(container, dict):
                container[name] = original
            else:
                setattr(container, name, original)


def installed_wrappers() -> List[str]:
    """Where a tracing wrapper is still bound (empty when none is)."""
    found = []

    def is_wrapper(v) -> bool:
        return getattr(getattr(v, "__func__", v), MARKER, False) is True

    for mod in _package_modules():
        for name, value in vars(mod).items():
            if is_wrapper(value):
                found.append(f"{mod.__name__}.{name}")
            elif type(value) is dict:
                found += [f"{mod.__name__}.{name}[{k!r}]"
                          for k, v in value.items() if is_wrapper(v)]
            elif inspect.isclass(value):
                found += [f"{mod.__name__}.{name}.{a}"
                          for a, v in vars(value).items() if is_wrapper(v)]
    return found


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------


def _calls(stats, key):
    return stats[key].calls if key in stats else None


def _self(stats, key):
    return stats[key].self_time if key in stats else None


def _sum_self(stats, pred):
    keys = [k for k in stats if pred(k)]
    return sum(stats[k].self_time for k in keys) if keys else None


def _ratio(num, den):
    if num is None or den is None:
        return None
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> Dict[str, Tuple[Optional[float], str]]:
    """name -> (value, unit); value None means the traced function is
    missing from this version of the program."""
    st = tracer.stats
    m: Dict[str, Tuple[Optional[float], str]] = {}

    def calls(name, key=None):
        m[name] = (_calls(st, key or name.rsplit(".", 1)[0]), "count")

    def self_s(name, key=None):
        m[name] = (_self(st, key or name.rsplit(".", 1)[0]), "s")

    def module_self(mod):
        m[f"{mod}.self_s"] = (_sum_self(st, lambda k: k.startswith(mod + ".")), "s")

    calls("cli.main.calls")
    self_s("cli.build_parser.self_s")
    module_self("cli")

    calls("serialization.validate.calls")
    self_s("serialization.validate.self_s")
    m["serialization.decode.self_s"] = (_sum_self(
        st, lambda k: k.startswith("serialization.") and k.endswith("_from_json")), "s")
    m["serialization.encode.self_s"] = (_sum_self(
        st, lambda k: k.startswith("serialization.") and k.endswith("_to_json")), "s")
    module_self("serialization")

    gauss_calls = _calls(st, "metrics.gauss_space")
    calls("metrics.gauss_space.calls")
    self_s("metrics.gauss_space.self_s")
    m["metrics.gauss_space.hit_ratio"] = (
        None if gauss_calls is None
        else (1 - len(tracer.gauss_pairs) / gauss_calls if gauss_calls else 0.0),
        "ratio")
    calls("metrics.sigma.calls")
    self_s("metrics.quotient_fiber_norm.self_s")
    self_s("metrics.restricted_sup_norm.self_s")
    module_self("metrics")

    calls("extension.min_norm_lift.calls")
    self_s("extension.min_norm_lift.self_s")
    self_s("extension.extend_trivial_via_laurent.self_s")
    self_s("extension.check_extension_theorem.self_s")
    module_self("extension")

    calls("spaces.distance_to_subspace.calls")
    self_s("spaces.distance_to_subspace.self_s")
    m["spaces.distance_to_subspace.work"] = (
        tracer.distance_work if "spaces.distance_to_subspace" in st else None,
        "count")
    self_s("spaces.orthogonalize_flag.self_s")
    self_s("spaces.quotient_norm.self_s")
    self_s("spaces.lattice_from_norm.self_s")
    calls("spaces.coordinates.calls")
    module_self("spaces")

    self_s("sections.restriction_kernel.self_s")
    calls("sections.mul.calls")
    module_self("sections")

    calls("linalg.rref.calls")
    self_s("linalg.rref.self_s")
    calls("linalg.rank.calls")
    calls("linalg.invert.calls")
    inv = st.get("linalg.invert")
    m["linalg.invert.fail_ratio"] = (
        _ratio(inv.raised, inv.calls) if inv else None, "ratio")
    calls("linalg.smith_diagonal.calls")
    m["linalg.smith_diagonal.accept_ratio"] = (
        _ratio(tracer.smith_accepted, _calls(st, "linalg.smith_diagonal")),
        "ratio")
    self_s("linalg.mat_vec.self_s")
    self_s("linalg.hnf_column_basis.self_s")
    self_s("linalg.lattice_intersection.self_s")
    module_self("linalg")

    calls("fields.rf.ops", "fields.rf.init")
    m["fields.rf.self_s"] = (_sum_self(st, lambda k: k.startswith("fields.rf.")), "s")
    calls("fields.abs.calls")
    self_s("fields.choose_laurent_base.self_s")
    module_self("fields")

    calls("adelic.lambda_Q.calls")
    calls("adelic.lambda_Z.calls")
    m["adelic.lambda.self_s"] = (_sum_self(
        st, lambda k: k in ("adelic.lambda_Q", "adelic.lambda_Z")), "s")
    self_s("adelic.finite_unit_lattice.self_s")
    module_self("adelic")
    return m


# Which traced functions each workload must call at least once, and which
# key prefixes must stay untouched.  Checked after the traced pass.
EXPECTED_CALLED = {
    "gauss_extension": [
        "cli.main", "cli.build_parser", "serialization.validate",
        "metrics.gauss_space", "metrics.sigma", "metrics.quotient_fiber_norm",
        "metrics.restricted_sup_norm", "extension.min_norm_lift",
        "extension.check_extension_theorem", "spaces.distance_to_subspace",
        "spaces.coordinates", "sections.restriction_kernel", "sections.mul",
        "linalg.rref", "linalg.rank", "linalg.invert", "linalg.mat_vec",
        "fields.abs"],
    "laurent_detour": [
        "cli.main", "extension.extend_trivial_via_laurent",
        "metrics.gauss_space",
        "spaces.distance_to_subspace", "spaces.orthogonalize_flag",
        "sections.restriction_kernel", "fields.rf.init",
        "fields.choose_laurent_base", "fields.abs", "linalg.invert",
        "linalg.rank"],
    "lattice_minima": [
        "cli.main", "serialization.validate", "adelic.lambda_Q",
        "adelic.lambda_Z", "adelic.finite_unit_lattice",
        "spaces.lattice_from_norm", "linalg.smith_diagonal",
        "linalg.hnf_column_basis", "linalg.lattice_intersection",
        "linalg.invert", "linalg.rank"],
    "small_requests": [
        "cli.main", "cli.build_parser", "serialization.validate",
        "serialization.space_from_json", "serialization.space_to_json",
        "serialization.matrix_from_json", "serialization.matrix_to_json",
        "spaces.orthogonalize_flag", "spaces.quotient_norm",
        "spaces.dual_norm", "spaces.lattice_from_norm",
        "spaces.norm_from_lattice", "spaces.coordinates", "linalg.rank"],
}
EXPECTED_UNTOUCHED = {
    "gauss_extension": ["adelic.", "fields.rf."],
    "laurent_detour": ["adelic."],
    "lattice_minima": ["fields.rf."],
    "small_requests": ["fields.rf.", "adelic."],
}


def self_check(workload: str, tracer: Tracer) -> Dict[str, List[str]]:
    """Predictions the traced pass did not meet.  The worker counts
    ``never_called`` and ``predicted_zero_but_called`` entries as failed
    jobs; ``missing`` functions are only reported, since a later version
    may legitimately drop them."""
    st = tracer.stats
    missing = [k for k in EXPECTED_CALLED[workload] if k not in st]
    never_called = [k for k in EXPECTED_CALLED[workload]
                    if k in st and st[k].calls == 0]
    touched = sorted(k for k in st for prefix in EXPECTED_UNTOUCHED[workload]
                     if k.startswith(prefix) and st[k].calls)
    return {"missing": missing, "never_called": never_called,
            "predicted_zero_but_called": touched}
