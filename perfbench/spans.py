"""Spans around randlab's layers, recorded from outside the package.

Every public function of a layer module is wrapped at every module
namespace that binds it (`cli` binds `realize`, `randtests` binds
`monotone_output_prob`, ...), and public methods of the layer's classes are
wrapped on the class.  Calls made through any of those bindings open a span
with a name, start, end, parent and request id; spans stay in memory until
the run ends.  `install` and `uninstall` swap the wrappers in and out, so
untimed and traced calls run the same program.

Left without spans, like `exact`, are helpers called once per word or per
coefficient: a wrapper there would mostly time itself.  Their cost lands in
the self time of the layer that called them.
"""
from __future__ import annotations

import dataclasses
import functools
import inspect
import os
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "formats", "measures", "machines", "randtests", "bernoulli", "poly", "coupling", "separator", "neutral")

PER_WORD = {
    "measures.validate_bits",
    "measures.is_prefix",
    "formats.parse_word",
    "formats.format_word",
    "coupling.leq_words",
    "measures.DyadicMeasure.mass",
    "randtests.ExtendedTest.value",
    "machines.MonotoneMachine.output",
    "poly.UnivariatePoly.__init__",
    "poly.UnivariatePoly.is_zero",
}

METHOD_DUNDERS = {"__init__", "__post_init__", "__call__", "__add__", "__sub__", "__mul__", "__neg__"}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _file_size(args, kwargs, result):
    return os.path.getsize(_arg(args, kwargs, 0, "path"))


#: Work counts taken at layer boundaries: site -> (counter, amount of one call).
COUNTERS = {
    "measures.all_words": ("measures.words", lambda a, k, r: 2 ** _arg(a, k, 0, "length")),
    "formats.parse_measure_spec_file": ("formats.bytes_in", _file_size),
    "formats.parse_sequence_file": ("formats.bytes_in", _file_size),
    "formats.parse_machine_file": ("formats.bytes_in", _file_size),
    "formats.parse_test_file": ("formats.bytes_in", _file_size),
    "formats.render_tsv": ("formats.bytes_out", lambda a, k, r: len(r)),
    "formats.render_test_file": ("formats.bytes_out", lambda a, k, r: len(r)),
    "machines.monotone_output_prob": ("machines.inputs_scanned", lambda a, k, r: 2 ** _arg(a, k, 2, "horizon")),
    "coupling.is_coupled_below": ("coupling.level_words", lambda a, k, r: 2 ** _arg(a, k, 2, "n")),
    "poly.count_roots_open": ("poly.intervals", lambda a, k, r: 1),
    "neutral.mixture_deficiency": ("neutral.points_labelled", lambda a, k, r: 1),
}
COUNTER_NAMES = tuple(dict.fromkeys(name for name, _ in COUNTERS.values()))


class Tracer:
    """Spans are lists [site, parent, start_ns, end_ns, raised, request]."""

    def __init__(self):
        self.sites: list[str] = []  # "layer.qualname", indexed by span[0]
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.current = -1
        self.request = -1
        self._patches: list[tuple[object, str, object, object]] = []
        self._find_bindings()

    # -- wrapping

    def _wrapper(self, fn, site: str):
        index = len(self.sites)
        self.sites.append(site)
        spans, counts, clock, tracer = self.spans, self.counts, time.perf_counter_ns, self
        counter = COUNTERS.get(site)

        def traced(*args, **kwargs):
            parent = tracer.current
            record = [index, parent, 0, 0, False, tracer.request]
            tracer.current = len(spans)
            spans.append(record)
            record[2] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                record[3] = clock()
                record[4] = True
                tracer.current = parent
                raise
            record[3] = clock()
            tracer.current = parent
            if counter is not None:
                counts[counter[0]] += counter[1](args, kwargs, result)
            return result

        return functools.wraps(fn)(traced)

    def _find_bindings(self) -> None:
        modules = [m for name, m in sys.modules.items() if name == "randlab" or name.startswith("randlab.")]
        originals: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules[f"randlab.{layer}"]
            for name, obj in vars(module).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if isinstance(obj, type):
                    self._wrap_class(layer, obj)
                elif callable(obj) and f"{layer}.{name}" not in PER_WORD:
                    originals[id(obj)] = self._wrapper(obj, f"{layer}.{name}")
        for module in modules:
            for name, obj in list(vars(module).items()):
                if id(obj) in originals:
                    self._patches.append((module, name, obj, originals[id(obj)]))
        self._originals = set(originals)

    def _wrap_class(self, layer: str, cls: type) -> None:
        if issubclass(cls, BaseException):
            return
        for name, attr in list(vars(cls).items()):
            site = f"{layer}.{cls.__qualname__}.{name}"
            if site in PER_WORD or (name.startswith("_") and name not in METHOD_DUNDERS):
                continue
            if name == "__init__" and dataclasses.is_dataclass(cls):
                continue
            if isinstance(attr, (classmethod, staticmethod)):
                wrapped = type(attr)(self._wrapper(attr.__func__, site))
            elif inspect.isfunction(attr) and not inspect.isgeneratorfunction(attr):
                wrapped = self._wrapper(attr, site)
            else:
                continue
            self._patches.append((cls, name, attr, wrapped))

    def install(self) -> None:
        for owner, name, _, wrapped in self._patches:
            setattr(owner, name, wrapped)

    def uninstall(self) -> None:
        for owner, name, original, _ in self._patches:
            setattr(owner, name, original)

    def unwrapped_bindings(self) -> list[str]:
        """Module bindings that still hold an original function while installed."""
        missed = []
        for name, module in list(sys.modules.items()):
            if name == "randlab" or name.startswith("randlab."):
                missed += [f"{name}.{attr}" for attr, obj in vars(module).items() if id(obj) in self._originals]
        return missed

    # -- analysis

    def self_times(self) -> list[int]:
        """Per span: its duration minus the durations of its direct children."""
        own = [end - start for _, _, start, end, _, _ in self.spans]
        for _, parent, start, end, _, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def write(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write("span\tparent\trequest\tsite\tstart_ns\tend_ns\traised\n")
            for i, (site, parent, start, end, raised, request) in enumerate(self.spans):
                fh.write(f"{i}\t{parent}\t{request}\t{self.sites[site]}\t{start}\t{end}\t{int(raised)}\n")
