"""Outside-in tracing of convbsde's layer boundaries.

Wrappers are installed by name on the module attributes through which
one layer calls the next (for example ``convbsde.solver.convolve_step``,
which is the name the solver loop looks up), so no source file of the
program is edited.  A target that does not exist is recorded as absent
and reports zero calls, so the tracer keeps working after a refactor
deletes or renames a helper.

Spans live in memory as ``[name, start, end, parent, request]`` and are
written out once, when the run ends.  A layer's self time is its span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import json
import math
import statistics
import time
from collections import defaultdict

ROOT_SPAN = "request"

# Every FFT entry point of numpy.fft and scipy.fft.  They are wrapped
# before convbsde is imported, so a later ``from scipy.fft import rfft``
# in the program binds the wrapper too.
FFT_MODULES = ("numpy.fft", "scipy.fft")
FFT_1D = ("fft", "ifft", "rfft", "irfft", "hfft", "ihfft")
FFT_ND = ("fft2", "ifft2", "rfft2", "irfft2", "fftn", "ifftn", "rfftn", "irfftn")
FFT_NAME = "spectral.fft"

# (metric prefix, module, attribute).  Several targets may feed one
# prefix: the CLI and the library entry points reach the same layer.
TARGETS = (
    ("cli.main", "convbsde.cli", "main"),
    ("pricing.build_pricing_problem", "convbsde.cli", "build_pricing_problem"),
    ("grid.build_grid", "convbsde.cli", "build_grid"),
    ("grid.build_grid", "convbsde", "build_grid"),
    ("solver.solve", "convbsde.cli", "solve"),
    ("solver.solve", "convbsde", "solve"),
    ("pathsim.simulate_paths", "convbsde.cli", "simulate_paths"),
    ("spectral.convolve_step", "convbsde.solver", "convolve_step"),
    ("spectral.convolve_step_statedep", "convbsde.solver", "convolve_step_statedep"),
    ("spectral.increment_cf", "convbsde.spectral", "increment_cf"),
    ("transform.fit_coefficients", "convbsde.solver", "fit_coefficients"),
    ("transform.apply_transform", "convbsde.solver", "apply_transform"),
    ("transform.adjustment_H", "convbsde.solver", "adjustment_H"),
)

# Callables on the spec that cli.build_pricing_problem returns.
SPEC_CALLABLES = (("driver", "pricing.driver"), ("barrier", "pricing.barrier"))

# Layers reported with calls and self time, in report order.
TIMED_LAYERS = (
    FFT_NAME,
    "spectral.increment_cf",
    "spectral.convolve_step",
    "spectral.convolve_step_statedep",
    "transform.fit_coefficients",
    "transform.apply_transform",
    "transform.adjustment_H",
    "solver.solve",
    "pricing.driver",
    "pricing.barrier",
    "cli.main",
    "pathsim.simulate_paths",
)
COUNTED_LAYERS = ("grid.build_grid", "pricing.build_pricing_problem")
# Per-request quantities recorded with Tracer.add.
COUNTERS = (
    "spectral.fft.points",
    "spectral.fft.ops_computed",
    "solver.surface_bytes",
    "cli.out_bytes",
)


def _fft_work(func: str, args, kwargs) -> tuple[int, float]:
    """Points transformed and the computed 5*P*log2(P) operation count."""
    data = args[0] if args else kwargs.get("x", kwargs.get("a"))
    shape = getattr(data, "shape", None)
    if shape is None:
        shape = (len(data),)
    size = math.prod(shape)
    if not size:
        return 0, 0.0
    if func in FFT_1D:
        axis = kwargs.get("axis", args[2] if len(args) > 2 else -1)
        n = kwargs.get("n", args[1] if len(args) > 1 else None)
        length = shape[axis]
        if n is None:
            n = 2 * (length - 1) if func in ("irfft", "hfft") else length
        batch = size // length
    else:
        n, batch = size, 1
    return n * batch, 5.0 * n * math.log2(max(n, 1)) * batch


class Tracer:
    """Span recorder with by-name wrapping of layer entry points."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict = defaultdict(float)
        self.request_id = None
        self.absent: list[str] = []
        self._stack: list[int] = []

    # -- recording ---------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.request_id])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def add(self, counter: str, amount: float) -> None:
        """Add to a per-request counter of the current request."""
        if self.request_id is not None:
            self.counts[(self.request_id, counter)] += amount

    @contextlib.contextmanager
    def request(self, request_id: int):
        """Make one request the root of the spans recorded inside it."""
        self.request_id = request_id
        index = self._open(ROOT_SPAN)
        try:
            yield
        finally:
            self._close(index)
            self.request_id = None

    def wrap(self, name: str, fn, after=None):
        """Return fn wrapped in a span; ``after`` may replace the result."""
        tracer = self

        def traced(*args, **kwargs):
            if tracer.request_id is None:
                return fn(*args, **kwargs)
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            return after(result) if after is not None else result

        return traced

    def _wrap_fft(self, func: str, fn):
        traced = self.wrap(FFT_NAME, fn)
        tracer = self

        def counted(*args, **kwargs):
            if tracer.request_id is not None:
                points, ops = _fft_work(func, args, kwargs)
                tracer.add("spectral.fft.points", points)
                tracer.add("spectral.fft.ops_computed", ops)
            return traced(*args, **kwargs)

        return counted

    # -- installation ------------------------------------------------

    def _resolve(self, module_name: str, attr: str):
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            return None, None
        return module, getattr(module, attr, None)

    def install(self) -> None:
        """Wrap every target that exists; record the ones that do not.

        Must run before convbsde is first imported, so that names the
        program binds at import time from numpy.fft or scipy.fft are
        the wrappers.
        """
        for module_name in FFT_MODULES:
            for func in FFT_1D + FFT_ND:
                module, fn = self._resolve(module_name, func)
                if fn is None:
                    continue
                setattr(module, func, self._wrap_fft(func, fn))
        for name, module_name, attr in TARGETS:
            module, fn = self._resolve(module_name, attr)
            if fn is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            after = None
            if name == "solver.solve":
                after = self._count_surface
            elif name == "pricing.build_pricing_problem":
                after = self._wrap_spec
            setattr(module, attr, self.wrap(name, fn, after))

    def _count_surface(self, surface):
        stored = 0
        for field in ("u", "udot", "reflection"):
            stored += getattr(getattr(surface, field, None), "nbytes", 0)
        self.add("solver.surface_bytes", stored)
        return surface

    def _wrap_spec(self, spec):
        if not dataclasses.is_dataclass(spec):
            return spec
        changes = {}
        for field, name in SPEC_CALLABLES:
            fn = getattr(spec, field, None)
            if callable(fn):
                changes[field] = self.wrap(name, fn)
        return dataclasses.replace(spec, **changes)

    # -- reporting ---------------------------------------------------

    def per_request(self) -> dict:
        """{request: {"calls", "self_s", "counters"}} from the spans."""
        child_time = defaultdict(float)
        for name, start, end, parent, request in self.spans:
            if parent is not None:
                child_time[parent] += end - start

        def entry():
            return {"calls": defaultdict(int), "self_s": defaultdict(float), "counters": {}}

        out = defaultdict(entry)
        for index, (name, start, end, parent, request) in enumerate(self.spans):
            out[request]["calls"][name] += 1
            out[request]["self_s"][name] += (end - start) - child_time[index]
        for (request, counter), value in self.counts.items():
            out[request]["counters"][counter] = value
        return dict(out)

    def layer_metrics(self) -> dict:
        """Per-request medians of every layer's calls, self time and counter."""
        requests = list(self.per_request().values())
        if not requests:
            raise RuntimeError("no traced requests")

        def median(values):
            return float(statistics.median(values))

        metrics = {}
        for name in TIMED_LAYERS:
            metrics[f"{name}.calls"] = median([r["calls"].get(name, 0) for r in requests])
            metrics[f"{name}.self_s"] = median([r["self_s"].get(name, 0.0) for r in requests])
        for name in COUNTED_LAYERS:
            metrics[f"{name}.calls"] = median([r["calls"].get(name, 0) for r in requests])
        for counter in COUNTERS:
            metrics[counter] = median([r["counters"].get(counter, 0) for r in requests])
        every_layer = {n for r in requests for n in r["self_s"]}
        metrics["trace.self_sum_s"] = sum(
            median([r["self_s"].get(n, 0.0) for r in requests]) for n in every_layer
        )
        return metrics

    def write_spans(self, path: str) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
