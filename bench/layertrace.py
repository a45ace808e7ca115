"""Outside-in layer tracing for the benchmark's traced run.

``install()`` replaces each layer's public functions with timing wrappers
at every place they are bound: the defining module, each ``from .x import
y`` site and the package namespace.  Calls made inside a module, such as
``tail_quantile`` calling ``pdf``, therefore cross a wrapper too.  Nothing
under ``src/`` changes.

Accounting is per span: a layer's self time is its span minus the spans of
the calls it makes into other layers.  A call into a layer that is already
the innermost active span (``max_pdf`` calling ``pdf``, ``characteristic_largest``
calling ``tail_quantile``) is part of that outer call; it is neither counted
nor timed on its own, so ``calls`` counts entries into a layer.  Spans are
folded into per-layer totals as they close instead of being kept, because
an ergodic grid opens several hundred thousand of them.
"""
from __future__ import annotations

import functools
import inspect
import time
from collections import Counter
from typing import Callable

import antsel
from antsel import capacity, cli, gumbel, mimo, oracle, orderstats, scheduling, streams

_MODULES = (antsel, capacity, cli, gumbel, mimo, oracle, orderstats, scheduling, streams)

KERNEL = "orderstats.kernel"
ERGODIC = "capacity.ergodic"

# Layer -> (module, public function names) wrapped as spans of that layer.
LAYERS: dict[str, tuple[object, tuple[str, ...]]] = {
    KERNEL: (orderstats, ("pdf", "cdf", "survival", "max_cdf", "max_pdf")),
    "orderstats.solver": (
        orderstats,
        ("tail_quantile", "quantile", "upper_density_root", "characteristic_largest"),
    ),
    ERGODIC: (
        capacity,
        ("ergodic_capacity", "mean_selection_gain", "selection_gain_variance"),
    ),
    "capacity.closed_form": (
        capacity,
        ("outage_probability", "outage_capacity", "ergodic_bounds", "ergodic_approx"),
    ),
    "gumbel.fit": (gumbel, ("normalizing_constants",)),
    "gumbel.cdf": (gumbel, ("gumbel_cdf", "approx_max_cdf")),
    "scheduling": (
        scheduling,
        (
            "greedy_capacity",
            "round_robin_capacity",
            "scheduling_gain",
            "fractional_gain",
            "gain_report",
            "gain_table",
        ),
    ),
    "mimo.ergodic": (mimo, ("mimo_ergodic",)),
    "mimo.outage": (mimo, ("mimo_outage",)),
    "mimo.scheduled": (mimo, ("mimo_scheduled_ergodic",)),
    "oracle": (oracle, ("empirical_ergodic", "ks_against", "sample_selection_gain")),
    "cli": (
        cli,
        tuple(name for name in vars(cli) if name.startswith("cmd_")),
    ),
}

# The lru_cache objects behind the capacity.ergodic layer, kept before
# patching so cache_info() still reads the real caches.
_CACHED = (
    capacity.ergodic_capacity,
    capacity.mean_selection_gain,
    capacity.selection_gain_variance,
)


class Tracer:
    """Per-layer call counts, self times and work counters of one process."""

    def __init__(self) -> None:
        self.stack: list[list] = []  # open spans: [layer, ns spent in child spans]
        self.calls: Counter[str] = Counter()
        self.self_ns: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()

    def wrap(
        self,
        layer: str,
        fn: Callable,
        on_return: Callable[[tuple, dict], None] | None = None,
    ) -> Callable:
        stack, calls, self_ns = self.stack, self.calls, self.self_ns
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            calls[layer] += 1
            frame = [layer, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_ns[layer] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if on_return is not None:
                on_return(args, kwargs)
            return result

        return wrapper

    def kernel_points(self, args: tuple, kwargs: dict) -> None:
        x = args[1] if len(args) > 1 else kwargs["x"]
        points = getattr(x, "size", 1)
        self.counts["orderstats.kernel.points"] += points
        if any(frame[0] == ERGODIC for frame in self.stack):
            self.counts["capacity.kernel_points_in_ergodic"] += points

    def normals(self, counter: str, fn: Callable) -> Callable[[tuple, dict], None]:
        """Hook adding the normals a sampler draws, computed from its arguments:
        samples * 2nm, times the user count for the scheduled estimator."""
        signature = inspect.signature(fn)

        def hook(args: tuple, kwargs: dict) -> None:
            bound = signature.bind(*args, **kwargs).arguments
            if "cfg" in bound:
                n, m = bound["cfg"].n, bound["cfg"].m
            else:
                n, m = bound["n"], bound["m"]
            draws = bound["mc"].samples * 2 * n * m * bound.get("users", 1)
            self.counts[counter] += draws

        return hook

    def counting(self, counter: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def counting_chunks(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for chunk in fn(*args, **kwargs):
                self.counts["streams.chunks"] += 1
                yield chunk

        return wrapper

    def summary(self) -> dict[str, dict[str, int]]:
        infos = [cached.cache_info() for cached in _CACHED]
        return {
            "calls": dict(self.calls),
            "self_ns": dict(self.self_ns),
            "counts": {
                **self.counts,
                "capacity.cache_hits": sum(info.hits for info in infos),
                "capacity.cache_misses": sum(info.misses for info in infos),
            },
        }


def _rebind(original: object, replacement: object) -> None:
    """Point every module-level name bound to ``original`` at ``replacement``."""
    for module in _MODULES:
        names = [name for name, value in vars(module).items() if value is original]
        for name in names:
            setattr(module, name, replacement)


def _with_counted_reference(ks_against: Callable, tracer: Tracer) -> Callable:
    """ks_against whose reference cdf counts its calls."""

    @functools.wraps(ks_against)
    def wrapper(cfg, mc, reference_cdf):
        counted = tracer.counting("oracle.reference_cdf.calls", reference_cdf)
        return ks_against(cfg, mc, counted)

    return wrapper


def install() -> Tracer:
    """Wrap every layer of the imported antsel package; returns the tracer."""
    tracer = Tracer()
    hooks: dict[Callable, Callable[[tuple, dict], None]] = {}
    for name in LAYERS[KERNEL][1]:
        hooks[getattr(orderstats, name)] = tracer.kernel_points
    for fn in (mimo.mimo_ergodic, mimo.mimo_outage, mimo.mimo_scheduled_ergodic):
        hooks[fn] = tracer.normals("mimo.normals", fn)
    for name in LAYERS["oracle"][1]:
        fn = getattr(oracle, name)
        hooks[fn] = tracer.normals("oracle.normals", fn)

    for layer, (module, names) in LAYERS.items():
        for name in names:
            original = getattr(module, name)
            target = original
            if original is oracle.ks_against:
                target = _with_counted_reference(original, tracer)
            _rebind(original, tracer.wrap(layer, target, hooks.get(original)))

    gumbel.GumbelFit.cdf = tracer.wrap("gumbel.cdf", gumbel.GumbelFit.cdf)
    _rebind(streams.chunk_generators, tracer.counting_chunks(streams.chunk_generators))
    return tracer
