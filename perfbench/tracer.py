"""Per-layer tracing of sturmia from outside the package.

Every public function a layer module defines is wrapped, and the wrapper is
bound in place of the original under every name that refers to it in any
`sturmia.*` namespace: modules import names directly, so rebinding
`ostrowski.encode` alone would miss `acceptance.encode`.  A span opens only
where a call crosses from one layer into another (or from the benchmark
into the package); calls inside a layer are counted but add no span, which
keeps the overhead low enough that self times stay meaningful.
"""

from __future__ import annotations

import importlib
import sys
import time
import tracemalloc

LAYERS = (
    "slope", "ostrowski", "words", "intercept", "repetition",
    "rauzy", "factorization", "torsion", "acceptance", "cli",
)

# Functions whose returned strings count towards words.letters.
LETTER_BUILDERS = {
    "characteristic_prefix", "shifted_characteristic_prefix", "mechanical_prefix", "standard_word",
}

# Layers whose outermost spans get a tracemalloc peak in the memory pass.
MEMORY_LAYERS = ("repetition", "rauzy")


def public_functions():
    """(layer, name, function) for each public function a layer defines,
    lru_cache wrappers included; classes are left alone."""
    for layer in LAYERS:
        module = importlib.import_module(f"sturmia.{layer}")
        for name, value in vars(module).items():
            if name.startswith("_") or isinstance(value, type) or not callable(value):
                continue
            if getattr(value, "__module__", None) == module.__name__:
                yield layer, name, value


def rebind(replacements: dict) -> None:
    """Bind replacements[id(original)] wherever a sturmia namespace holds an
    original."""
    for module_name, module in list(sys.modules.items()):
        if module_name != "sturmia" and not module_name.startswith("sturmia."):
            continue
        for name, value in list(vars(module).items()):
            wrapper = replacements.get(id(value))
            if wrapper is not None:
                setattr(module, name, wrapper)


def cache_ratio(before, after) -> float:
    """Hit ratio of an lru_cache between two cache_info() snapshots; 0.0
    when the cache saw no lookups or does not exist."""
    if before is None or after is None:
        return 0.0
    hits = after["hits"] - before["hits"]
    lookups = hits + after["misses"] - before["misses"]
    return hits / lookups if lookups else 0.0


class Tracer:
    """Call counts and self time per layer, plus letter counters.

    The stack holds one frame per open span: [layer, time spent in child
    spans].  The bottom frame belongs to the benchmark, so its child time
    is the total time spent inside sturmia.
    """

    def __init__(self):
        self.originals = {}
        self.counts = {}
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.letters = {"words": [0], "repetition.direct": [0]}
        self.stack = [[None, 0.0]]

    def install(self) -> None:
        replacements = {}
        for layer, name, fn in public_functions():
            self.originals[(layer, name)] = fn
            self.counts[(layer, name)] = counter = [0]
            letters = None
            if layer == "words" and name in LETTER_BUILDERS:
                letters = self.letters["words"]
            replacements[id(fn)] = self._wrap(fn, layer, counter, letters)
        # repetition_direct scans its first argument; count those letters
        direct = self.originals.get(("repetition", "repetition_direct"))
        if direct is not None:
            scanned = self.letters["repetition.direct"]
            wrapped = replacements[id(direct)]

            def repetition_direct(x_prefix, *args, **kwargs):
                scanned[0] += len(x_prefix)
                return wrapped(x_prefix, *args, **kwargs)

            replacements[id(direct)] = repetition_direct
        rebind(replacements)

    def _wrap(self, fn, layer, counter, letters):
        stack, self_s, clock = self.stack, self.self_s, time.perf_counter

        def traced(*args, **kwargs):
            counter[0] += 1
            if stack[-1][0] == layer:
                result = fn(*args, **kwargs)
            else:
                frame = [layer, 0.0]
                stack.append(frame)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    spent = clock() - start
                    stack.pop()
                    self_s[layer] += spent - frame[1]
                    stack[-1][1] += spent
            if letters is not None:
                letters[0] += len(result)
            return result

        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__wrapped__ = fn
        return traced

    def cache_info(self, layer: str, name: str):
        fn = self.originals.get((layer, name))
        if fn is None:
            fn = getattr(importlib.import_module(f"sturmia.{layer}"), name, None)
        info = getattr(fn, "cache_info", None)
        return info()._asdict() if info is not None else None

    def snapshot(self, full: bool = True) -> dict:
        """Cumulative counters; the difference of two snapshots is what
        happened in between.  The short form (per operation) leaves out
        per-function counts, letters and caches."""
        calls = dict.fromkeys(LAYERS, 0)
        for (layer, _), counter in self.counts.items():
            calls[layer] += counter[0]
        out = {"calls": calls, "self_s": dict(self.self_s), "inside_s": self.stack[0][1]}
        if full:
            out["functions"] = {f"{layer}.{name}": c[0] for (layer, name), c in self.counts.items()}
            out["letters"] = {key: cell[0] for key, cell in self.letters.items()}
            out["caches"] = {
                "slope.rows": self.cache_info("slope", "_rows"),
                "words.prefix": self.cache_info("words", "characteristic_prefix"),
                "words.standard_word": self.cache_info("words", "standard_word"),
            }
        return out


class MemoryProbe:
    """tracemalloc peaks around the outermost spans of MEMORY_LAYERS.

    tracemalloc runs only while such a span is open, so the rest of the
    pass runs at full speed.  Nested spans of another probed layer reset
    the peak, so each frame folds the running peak into its own before
    that happens.
    """

    def __init__(self):
        self.peak_bytes = dict.fromkeys(MEMORY_LAYERS, 0)
        self.frames = []

    def install(self) -> None:
        replacements = {}
        for layer, _, fn in public_functions():
            if layer in MEMORY_LAYERS:
                replacements[id(fn)] = self._wrap(fn, layer)
        rebind(replacements)

    def _wrap(self, fn, layer):
        frames, peaks = self.frames, self.peak_bytes

        def probed(*args, **kwargs):
            if any(frame[0] == layer for frame in frames):
                return fn(*args, **kwargs)
            if not frames:
                tracemalloc.start()
            current, peak = tracemalloc.get_traced_memory()
            for frame in frames:
                frame[2] = max(frame[2], peak)
            tracemalloc.reset_peak()
            frame = [layer, current, current]
            frames.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                top = max(frame[2], tracemalloc.get_traced_memory()[1])
                frames.pop()
                peaks[layer] = max(peaks[layer], top - frame[1])
                for outer in frames:
                    outer[2] = max(outer[2], top)
                if not frames:
                    tracemalloc.stop()

        probed.__name__ = getattr(fn, "__name__", "probed")
        probed.__wrapped__ = fn
        return probed
