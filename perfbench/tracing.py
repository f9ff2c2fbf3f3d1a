"""Spans around calls into the cmrf package, recorded from outside it.

Each traced function object is wrapped once. Installing the tracer puts the
wrapper at every name in the loaded cmrf modules that refers to the original
(module globals such as `cmrf.samplers.satisfaction_pass` and values of
module-level dicts such as `SAMPLERS`), so calls made through any of those
names record a span: name, start, end, parent span and request. A target
that a later version of the package no longer has is listed in `missing`
and reports zero; a counter hook that no longer fits the function's
signature is listed in `hook_errors`.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import tracemalloc
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable


# Counter hooks: (arguments, result) -> counters, where arguments() binds the
# call's arguments to the function's parameter names.
def _draws(arguments, result):
    return {"draws": result.size}


def _rows_checked(arguments, result):
    return {"rows": result[1].shape[0]}


def _resampled(arguments, result):
    batch, stats = result
    return {
        "rows": batch.valid_flags.size,
        "valid": int(batch.valid_flags.sum()),
        "rounds": int(stats.rounds_per_row.sum()),
    }


def _site_updates(arguments, result):
    bound = arguments()
    cfg = bound["cfg"]
    sweeps = cfg.gibbs_burn_in + cfg.gibbs_thinning * cfg.batch_size
    return {"sites": sweeps * bound["cs"].n_vars}


def _enumerated(arguments, result):
    return {"assignments": 2 ** arguments()["cs"].n_vars}


# (module, function, counter hook or None)
TARGETS = (
    ("rng", "uniform_field", _draws),
    ("tensors", "encode_tensors", None),
    ("tensors", "satisfaction_pass", _rows_checked),
    ("tensors", "resample_mask", None),
    ("cnf", "load_constraints", None),
    ("cnf", "satisfies_all", None),
    ("samplers", "nelson_sample", _resampled),
    ("samplers", "moser_tardos_sample", _resampled),
    ("samplers", "gibbs_sample", _site_updates),
    ("learn", "train", None),
    ("learn", "draw_valid_rows", None),
    ("learn", "cd_step", None),
    ("learn", "neg_log_likelihood", None),
    ("oracle", "exact_distribution", _enumerated),
    ("metrics", "resample_stats", None),
    ("metrics", "save_histogram_csv", None),
    ("cli", "run", None),
    ("problems", "gen_sinkfree", None),
    ("problems", "gen_routes", None),
    ("problems", "gen_training_set", None),
)

# Functions whose tracemalloc peak is recorded when the tracer is installed
# with memory=True. tracemalloc slows the whole call tree (a 200-iteration
# train call by about a quarter), so requests traced with memory are kept
# out of the timings.
MEMORY_TRACED = {"tensors.satisfaction_pass"}

# The partial-rejection samplers, whose rows, valid rows and rounds are counted.
RESAMPLERS = {"samplers.nelson_sample", "samplers.moser_tardos_sample"}


@dataclass
class Span:
    request: int
    name: str
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.hook_errors: set[str] = set()
        self.request = 0
        self.memory = False
        self._stack: list[int] = []
        self._patches: list[tuple[dict, str, object]] = []
        self._wrappers = []
        for module_name, fn_name, hook in TARGETS:
            name = f"{module_name}.{fn_name}"
            try:
                module = importlib.import_module(f"cmrf.{module_name}")
            except ImportError:
                self.missing.append(name)
                continue
            fn = getattr(module, fn_name, None)
            if not callable(fn):
                self.missing.append(name)
                continue
            self._wrappers.append((fn, self._wrap(name, fn, hook)))

    def _wrap(self, name: str, fn: Callable, hook) -> Callable:
        spans, stack = self.spans, self._stack
        memory_traced = name in MEMORY_TRACED
        signature = inspect.signature(fn) if hook is not None else None

        def wrapper(*args, **kwargs):
            span = Span(self.request, name, stack[-1] if stack else None)
            stack.append(len(spans))
            spans.append(span)
            memory = memory_traced and self.memory
            if memory:
                tracemalloc.start()
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                if memory:
                    span.counts["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            if hook is not None:
                try:
                    span.counts.update(
                        hook(lambda: signature.bind(*args, **kwargs).arguments, result))
                except Exception:  # a refactored signature must not stop the run
                    self.hook_errors.add(name)
            return result

        return wrapper

    def install(self, request: int, memory: bool = False) -> None:
        """Put every wrapper in place; spans recorded until uninstall() carry
        this request number, and with memory=True the MEMORY_TRACED spans
        also record their tracemalloc peak."""
        self.request = request
        self.memory = memory
        modules = [m for key, m in list(sys.modules.items())
                   if key == "cmrf" or key.startswith("cmrf.")]
        for fn, wrapper in self._wrappers:
            for module in modules:
                namespace = vars(module)
                for key, value in list(namespace.items()):
                    if key.startswith("__"):
                        continue
                    if value is fn:
                        self._patch(namespace, key, fn, wrapper)
                    elif type(value) is dict:
                        for item_key, item in list(value.items()):
                            if item is fn:
                                self._patch(value, item_key, fn, wrapper)

    def _patch(self, container: dict, key, fn, wrapper) -> None:
        self._patches.append((container, key, fn))
        container[key] = wrapper

    def uninstall(self) -> None:
        for container, key, fn in reversed(self._patches):
            container[key] = fn
        self._patches.clear()

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("request,name,start,end,parent\n")
            for span in self.spans:
                parent = "" if span.parent is None else span.parent
                fh.write(f"{span.request},{span.name},{span.start:.9f},{span.end:.9f},{parent}\n")

    def totals(self) -> dict[int, Counter]:
        """Per request: `<name>.s` busy time, `<name>.calls`, `<layer>.self_s`
        (busy time minus child spans), summed counters (`<name>.<counter>`,
        peaks taken as a maximum), `learn.sampler_batches` (sampler calls
        made directly by draw_valid_rows), and `sample.<counter>`: the
        counters of nelson/moser calls made directly by the CLI, and the rows
        their satisfaction passes checked."""
        child_time = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        out: dict[int, Counter] = defaultdict(Counter)
        for index, span in enumerate(self.spans):
            c = out[span.request]
            busy = span.end - span.start
            c[f"{span.name}.s"] += busy
            c[f"{span.name}.calls"] += 1
            c[f"{span.name.split('.')[0]}.self_s"] += busy - child_time[index]
            for key, value in span.counts.items():
                if key.startswith("peak"):
                    c[f"{span.name}.{key}"] = max(c[f"{span.name}.{key}"], value)
                else:
                    c[f"{span.name}.{key}"] += value
            parent = self.spans[span.parent] if span.parent is not None else None
            if parent is None:
                continue
            if span.name.startswith("samplers.") and parent.name == "learn.draw_valid_rows":
                c["learn.sampler_batches"] += 1
            if span.name in RESAMPLERS and parent.name == "cli.run":
                for key in ("rows", "valid", "rounds"):
                    c[f"sample.{key}"] += span.counts.get(key, 0)
            if (span.name == "tensors.satisfaction_pass" and parent.name in RESAMPLERS
                    and parent.parent is not None
                    and self.spans[parent.parent].name == "cli.run"):
                c["sample.rows_checked"] += span.counts.get("rows", 0)
        return out


# Units of the per-layer metrics that are not times in seconds.
UNITS = {
    "rng.draws": "count",
    "tensors.rows_checked": "count",
    "tensors.satisfaction_pass.peak_mb": "MB",
    "tensors.encode_tensors.calls": "count",
    "samplers.rounds_mean": "rounds",
    "samplers.rows_checked_per_valid_row": "ratio",
    "samplers.gibbs_us_per_site": "us",
    "learn.draw_valid_rows.calls": "count",
    "learn.retry_batches": "count",
    "oracle.assignments_enumerated": "count",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(t: Counter) -> dict[str, float]:
    """The per-layer metrics of one request from its totals()."""
    return {
        "rng.uniform_field.s": t["rng.uniform_field.s"],
        "rng.draws": t["rng.uniform_field.draws"],
        "tensors.satisfaction_pass.s": t["tensors.satisfaction_pass.s"],
        "tensors.rows_checked": t["tensors.satisfaction_pass.rows"],
        "tensors.satisfaction_pass.peak_mb": t["tensors.satisfaction_pass.peak_bytes"] / 2**20,
        "tensors.resample_mask.s": t["tensors.resample_mask.s"],
        "tensors.encode_tensors.s": t["tensors.encode_tensors.s"],
        "tensors.encode_tensors.calls": t["tensors.encode_tensors.calls"],
        "samplers.nelson_sample.s": t["samplers.nelson_sample.s"],
        "samplers.moser_tardos_sample.s": t["samplers.moser_tardos_sample.s"],
        "samplers.gibbs_sample.s": t["samplers.gibbs_sample.s"],
        "samplers.self_s": t["samplers.self_s"],
        "samplers.rounds_mean": _ratio(t["sample.rounds"], t["sample.rows"]),
        "samplers.rows_checked_per_valid_row": _ratio(t["sample.rows_checked"], t["sample.valid"]),
        "samplers.gibbs_us_per_site": _ratio(1e6 * t["samplers.gibbs_sample.s"],
                                             t["samplers.gibbs_sample.sites"]),
        "learn.draw_valid_rows.s": t["learn.draw_valid_rows.s"],
        "learn.draw_valid_rows.calls": t["learn.draw_valid_rows.calls"],
        "learn.retry_batches": t["learn.sampler_batches"] - t["learn.draw_valid_rows.calls"],
        "learn.cd_step.s": t["learn.cd_step.s"],
        "learn.self_s": t["learn.self_s"],
        "oracle.exact_distribution.s": t["oracle.exact_distribution.s"],
        "oracle.assignments_enumerated": t["oracle.exact_distribution.assignments"],
        "cnf.load_constraints.s": t["cnf.load_constraints.s"],
        "cnf.satisfies_all.s": t["cnf.satisfies_all.s"],
        "metrics.resample_stats.s": t["metrics.resample_stats.s"],
        "metrics.save_histogram_csv.s": t["metrics.save_histogram_csv.s"],
        "cli.self_s": t["cli.self_s"],
    }


def gen_seconds(t: Counter) -> float:
    """Busy time of the problems.gen_* calls made during one set-up."""
    return sum(v for k, v in t.items() if k.startswith("problems.gen_") and k.endswith(".s"))
