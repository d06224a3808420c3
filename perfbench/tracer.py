"""Per-layer tracing from outside the library.

`Tracer.install()` replaces each listed public function of the seven
layers, wherever a midconv module holds a reference to it, by a wrapper
that counts calls and accumulates self time: the call's duration minus
the durations of the wrapped calls made inside it.  `uninstall()` puts
the originals back.  Work a wrapper does after a call (scanning outputs
for bit heights, sizing files) is charged to no function, so it shows as
tracing overhead rather than as layer time.

`cli.main` wraps every command, so its self time holds all the work of a
command that no listed function covers: argparse, payload formatting and
JSON, but also unlisted library helpers (`tuplefile.tuple_to_doc`,
rational parsing, ...).  `library_share()` is therefore the measure of
coverage: the self time of the six library layers over the time spent
in `cli.main`.
"""

from __future__ import annotations

import os
import sys
from collections import Counter
from fractions import Fraction
from time import perf_counter

LAYERS = {
    "exactla": ["rank", "rref_nullspace", "det", "inverse", "charpoly",
                "rational_spectrum", "jordan_partition", "is_semisimple",
                "primary_components", "Subspace.from_spanning", "Subspace.sum",
                "IncrementalSpan.add", "Mat.__mul__"],
    "model": ["validate", "spectral_type", "addition", "strip_trivial", "pad_point"],
    "convolution": ["convolution_matrices", "subspace_K", "subspace_Lprime",
                    "subspace_L", "middle_convolution"],
    "rigidity": ["commutant_dim", "index", "is_irreducible", "are_similar"],
    "reduction": ["reduce", "reduce_step", "choose_pivot", "terminal_pattern",
                  "enumerate_terminals"],
    "tuplefile": ["read_tuple", "write_tuple"],
    "cli": ["main"],
}

FUNCTIONS = [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]


def _entry_bits(obj) -> int:
    """Largest numerator or denominator bit length inside a kernel output."""
    if isinstance(obj, Fraction):
        return max(obj.numerator.bit_length(), obj.denominator.bit_length())
    data = getattr(obj, "data", None)                  # Mat
    if data is not None:
        return max((_entry_bits(x) for row in data for x in row), default=0)
    for attr in ("basis", "coeffs"):                   # Subspace, Poly
        if hasattr(obj, attr):
            return _entry_bits(getattr(obj, attr))
    if isinstance(obj, (tuple, list)):
        return max((_entry_bits(x) for x in obj), default=0)
    return 0


class Tracer:
    """Calls, self times and counters of the wrapped functions, kept in
    memory until `metrics()` reads them."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = Counter()
        self.total_s = Counter()
        self.extra = Counter()
        self.active = Counter()
        self._child = []        # per open wrapped call: time spent in wrapped children
        self._patches = []      # (owner, attribute, original)

    def reset(self) -> None:
        self.calls.clear()
        self.self_s.clear()
        self.total_s.clear()
        self.extra.clear()

    # -- wrapping -----------------------------------------------------

    def _after(self, name: str, args, result) -> None:
        """Counters measured where the work happens, outside the timers."""
        x = self.extra
        if name.startswith("exactla."):
            if name == "exactla.IncrementalSpan.add":
                x["span_accepted"] += bool(result)
            else:
                x["max_entry_bits"] = max(x["max_entry_bits"], _entry_bits(result))
            if name == "exactla.det" and self.active["rigidity.are_similar"]:
                x["det_calls"] += 1
        elif name == "convolution.subspace_K" and self.active["reduction.reduce_step"]:
            x["subspace_K_in_step"] += 1
        elif name == "reduction.reduce":
            x["steps"] += len(result.steps)
        elif name == "tuplefile.read_tuple":
            x["bytes_read"] += os.path.getsize(args[0])
        elif name == "tuplefile.write_tuple":
            x["bytes_written"] += os.path.getsize(args[0])

    def _wrap(self, name: str, fn):
        calls, self_s, total_s = self.calls, self.self_s, self.total_s
        active, child = self.active, self._child
        after = self._after

        def wrapper(*args, **kwargs):
            active[name] += 1
            child.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                inner = child.pop()
                active[name] -= 1
                calls[name] += 1
                self_s[name] += dt - inner
                total_s[name] += dt
            t1 = perf_counter()
            after(name, args, result)
            if child:
                child[-1] += dt + (perf_counter() - t1)
            return result

        return wrapper

    def install(self) -> None:
        mods = {k: v for k, v in sys.modules.items()
                if k.startswith("midconv.") and v is not None}
        for name in FUNCTIONS:
            layer, _, attr = name.partition(".")
            home = mods[f"midconv.{layer}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, staticmethod):
                    new = staticmethod(self._wrap(name, raw.__func__))
                else:
                    new = self._wrap(name, raw)
                self._patches.append((cls, meth, raw))
                setattr(cls, meth, new)
                continue
            orig = getattr(home, attr)
            new = self._wrap(name, orig)
            for mod in mods.values():
                if mod.__dict__.get(attr) is orig:
                    self._patches.append((mod, attr, orig))
                    setattr(mod, attr, new)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- results ------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of everything recorded since the last reset."""
        out = {}
        for name in FUNCTIONS:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_s"] = (self.self_s[name], "s")
        x, c = self.extra, self.calls
        span_calls = c["exactla.IncrementalSpan.add"]
        steps = c["reduction.reduce_step"]
        out.update({
            "exactla.IncrementalSpan.add.accept_ratio":
                (x["span_accepted"] / span_calls if span_calls else 0.0, "ratio"),
            "exactla.max_entry_bits": (x["max_entry_bits"], "bits"),
            "convolution.subspace_K.per_reduce_step":
                (x["subspace_K_in_step"] / steps if steps else 0.0, "ratio"),
            "rigidity.are_similar.det_calls": (x["det_calls"], "count"),
            "reduction.steps": (x["steps"], "count"),
            "tuplefile.bytes_read": (x["bytes_read"], "bytes"),
            "tuplefile.bytes_written": (x["bytes_written"], "bytes"),
        })
        return out

    def library_share(self) -> float:
        """Self time of every wrapped library function over the time
        spent in the wrapped `cli.main` calls."""
        library = sum(t for name, t in self.self_s.items() if name != "cli.main")
        return library / self.total_s["cli.main"]
