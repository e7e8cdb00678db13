"""Per-layer tracing of anosovgraph, done from outside the package.

`Tracer.install()` rebinds every public function of the traced modules to a
wrapper that records a span (name, start, end, parent span, op id) and counts
the call. The package imports with `from .x import f`, so the wrapper replaces
the name on every module that holds the function, not only where it is defined.
`RationalMatrix.__mul__`/`det` and `AnalysisReport.to_json`/`to_text` are
rebound on their classes. `uninstall()` restores everything.

Spans are recorded only on the thread that runs the op. A call made on another
thread (the `decide` thread pool) is counted, and its time stays inside the
span that waits for it, so spans nest and self times add up to at most the
op's wall time.

Functions are found by name. When a later version of the package drops or
renames one, the metrics built on it read 0 and `absent()` names them; the run
does not fail.
"""

from __future__ import annotations

import inspect
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = (
    "graphs", "holonomy", "repdecomp", "witness", "liealg",
    "exactmat", "hyperbolicity", "polynomials", "analysis", "cli",
)
METHODS = {
    "exactmat.RationalMatrix": ("__mul__", "det"),
    "analysis.AnalysisReport": ("to_json", "to_text"),
}


def _bits(p) -> int:
    return max(abs(c).bit_length() for c in p.coefficients)


def _matmul_dim(args) -> int:
    return max(max(a.shape) for a in args if hasattr(a, "shape"))


# Observers read arguments and results of one function into named stats.
OBSERVERS = {
    "polynomials.sturm_chain": lambda t, args, res: t.peak("polynomials.sturm_chain_len_max", len(res)),
    "hyperbolicity.unit_circle_analysis": lambda t, args, res: (
        t.peak("hyperbolicity.poly_degree_max", args[0].degree),
        t.peak("hyperbolicity.coeff_bits_max", _bits(args[0])),
        t.peak("hyperbolicity.recip_gcd_degree_max", res.reciprocal_gcd_degree),
    ),
    "exactmat.RationalMatrix.__mul__": lambda t, args, res: t.peak("exactmat.matmul_dim_max", _matmul_dim(args)),
    "witness.find_seed": lambda t, args, res: t.add("witness.seeds_found", 1),
    "witness.choose_exponents": lambda t, args, res: t.peak("witness.exponent_max", max(res, default=0)),
    "graphs.coherent_components": lambda t, args, res: t.add("graphs.components", res.num_components),
    "holonomy.build_action": lambda t, args, res: (
        t.peak("holonomy.group_order_max", res.order),
        t.add("holonomy.group_elements", len(res.elements)),
    ),
}

# metric -> (kind, functions it is built on). Kinds: "self" sums the self
# time of those functions' spans, "calls" counts calls, "stat" reads an
# observer's value, "yields" counts items a generator produced.
PER_LAYER = {
    "polynomials.poly_gcd_s": ("self", ["polynomials.poly_gcd"]),
    "polynomials.poly_gcd_calls": ("calls", ["polynomials.poly_gcd"]),
    "polynomials.sturm_s": ("self", ["polynomials.count_real_roots_between", "polynomials.sturm_chain"]),
    "polynomials.sturm_chain_len_max": ("stat", ["polynomials.sturm_chain"]),
    "hyperbolicity.unit_circle_s": ("self", ["hyperbolicity.unit_circle_analysis"]),
    "hyperbolicity.unit_circle_calls": ("calls", ["hyperbolicity.unit_circle_analysis"]),
    "hyperbolicity.certify_polynomial_calls": ("calls", ["hyperbolicity.certify_polynomial"]),
    "hyperbolicity.char_poly_s": ("self", ["hyperbolicity.char_poly"]),
    "hyperbolicity.char_poly_calls": ("calls", ["hyperbolicity.char_poly"]),
    "hyperbolicity.exterior_square_s": ("self", ["hyperbolicity.exterior_square_char_poly"]),
    "hyperbolicity.poly_degree_max": ("stat", ["hyperbolicity.unit_circle_analysis"]),
    "hyperbolicity.coeff_bits_max": ("stat", ["hyperbolicity.unit_circle_analysis"]),
    "hyperbolicity.recip_gcd_degree_max": ("stat", ["hyperbolicity.unit_circle_analysis"]),
    "exactmat.matmul_s": ("self", ["exactmat.RationalMatrix.__mul__"]),
    "exactmat.matmul_calls": ("calls", ["exactmat.RationalMatrix.__mul__"]),
    "exactmat.matmul_dim_max": ("stat", ["exactmat.RationalMatrix.__mul__"]),
    "exactmat.det_s": ("self", ["exactmat.RationalMatrix.det"]),
    "liealg.extend_to_algebra_s": ("self", ["liealg.extend_to_algebra"]),
    "liealg.extend_to_algebra_calls": ("calls", ["liealg.extend_to_algebra"]),
    "liealg.bracket_check_s": ("self", ["liealg.is_algebra_automorphism"]),
    "witness.find_seed_s": ("self", ["witness.find_seed"]),
    "witness.seed_candidates": ("yields", ["witness.seed_catalog"]),
    "witness.seed_hit_ratio": ("ratio", ["witness.find_seed", "witness.seed_catalog"]),
    "witness.choose_exponents_s": ("self", ["witness.choose_exponents"]),
    "witness.plan_blocks_calls": ("calls", ["witness.plan_blocks"]),
    "witness.exponent_max": ("stat", ["witness.choose_exponents"]),
    "witness.assemble_self_s": ("self", ["witness.assemble_witness"]),
    "repdecomp.decide_s": ("self", ["repdecomp.decide"]),
    "repdecomp.decide_calls": ("calls", ["repdecomp.decide"]),
    "graphs.parse_s": ("self", ["graphs.parse_graph", "graphs.graph_from_json_dict",
                                "graphs.parse_holonomy_generators"]),
    "graphs.coherent_components_s": ("self", ["graphs.coherent_components"]),
    "graphs.components": ("stat", ["graphs.coherent_components"]),
    "holonomy.build_action_s": ("self", ["holonomy.build_action"]),
    "holonomy.group_order_max": ("stat", ["holonomy.build_action"]),
    "holonomy.group_elements": ("stat", ["holonomy.build_action"]),
    "analysis.analyze_self_s": ("self", ["analysis.analyze"]),
    "analysis.render_s": ("self", ["analysis.AnalysisReport.to_json", "analysis.AnalysisReport.to_text"]),
}
# Self time of each whole layer, so the layers account for the traced op time.
LAYER_TOTALS = {f"{layer}.self_s": layer for layer in LAYERS}


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    return "bits" if metric.endswith("_bits_max") else "count"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or None, op id]
        self.calls: Counter = Counter()
        self.stats: dict = defaultdict(int)
        self.op = None
        self.wrapped: set[str] = set()
        self.broken: set[str] = set()  # functions whose observer no longer fits
        self._stack: list[int] = []
        self._main = threading.get_ident()
        self._lock = threading.Lock()
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def reset(self) -> None:
        self.spans, self.calls, self.stats = [], Counter(), defaultdict(int)

    def peak(self, key: str, value) -> None:
        self.stats[key] = max(self.stats[key], value)

    def add(self, key: str, value) -> None:
        self.stats[key] += value

    def _wrap(self, name: str, fn):
        tracer = self
        observe = OBSERVERS.get(name)
        if inspect.isgeneratorfunction(fn):
            def wrapper(*args, **kwargs):
                tracer.calls[name] += 1
                for item in fn(*args, **kwargs):
                    tracer.calls[name + ":yield"] += 1
                    yield item
        else:
            def wrapper(*args, **kwargs):
                with tracer._lock:
                    tracer.calls[name] += 1
                if threading.get_ident() != tracer._main:
                    return fn(*args, **kwargs)
                stack = tracer._stack
                span = [name, 0.0, 0.0, stack[-1] if stack else None, tracer.op]
                stack.append(len(tracer.spans))
                tracer.spans.append(span)
                span[1] = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span[2] = perf_counter()
                    stack.pop()
                if observe is not None and name not in tracer.broken:
                    try:
                        observe(tracer, args, result)
                    except (AttributeError, TypeError, IndexError, ValueError):
                        tracer.broken.add(name)
                return result
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        """Rebind every traced function on every anosovgraph module that holds it."""
        replace = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            mod = sys.modules.get(f"anosovgraph.{layer}")
            if mod is None:
                continue
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and callable(obj)
                    and not isinstance(obj, type)
                    and getattr(obj, "__module__", None) == mod.__name__
                ):
                    replace[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
                    self.wrapped.add(f"{layer}.{attr}")
        for owner, names in METHODS.items():
            layer, cls_name = owner.split(".")
            cls = getattr(sys.modules.get(f"anosovgraph.{layer}"), cls_name, None)
            for attr in names:
                fn = vars(cls).get(attr) if isinstance(cls, type) else None
                if fn is None:
                    continue
                wrapper = self._wrap(f"{owner}.{attr}", fn)
                self.wrapped.add(f"{owner}.{attr}")
                for alias, value in list(vars(cls).items()):  # __rmul__ is __mul__
                    if value is fn:
                        self._saved.append((cls, alias, fn))
                        setattr(cls, alias, wrapper)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "anosovgraph" or mod_name.startswith("anosovgraph.")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = replace.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._saved):
            setattr(owner, attr, obj)
        self._saved = []

    # -- results -----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Span duration minus the time its child spans cover (children run one after another)."""
        out = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                out[parent] -= end - start
        return out

    def absent(self) -> list[str]:
        """Per-layer metrics whose functions are missing, or whose observer broke."""
        return sorted(
            metric
            for metric, (_, names) in PER_LAYER.items()
            if any(n not in self.wrapped or n in self.broken for n in names)
        )

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded since the last reset."""
        by_name: dict[str, float] = defaultdict(float)
        for span, own in zip(self.spans, self.self_times()):
            by_name[span[0]] += own
        out = {}
        for metric, (kind, names) in PER_LAYER.items():
            if kind == "self":
                out[metric] = sum(by_name[n] for n in names)
            elif kind == "calls":
                out[metric] = sum(self.calls[n] for n in names)
            elif kind == "yields":
                out[metric] = sum(self.calls[n + ":yield"] for n in names)
            elif kind == "stat":
                out[metric] = self.stats[metric]
            else:  # seed_hit_ratio: seeds found per candidate tried
                tried = self.calls["witness.seed_catalog:yield"]
                out[metric] = self.stats["witness.seeds_found"] / tried if tried else 0.0
        for metric, layer in LAYER_TOTALS.items():
            out[metric] = sum(v for n, v in by_name.items() if n.split(".")[0] == layer)
        for metric in self.absent():
            out[metric] = 0
        return out
