"""Per-layer accounting for the traced run, measured from outside ``repro``.

Two instruments, both installed from this file so ``src/`` stays as is:

* **Self time** — ``cProfile`` records every function's self time; each
  function is charged to the ``repro.<layer>`` package that owns its
  code.  Builtins and other code outside ``repro`` (``heapq``, numpy,
  generated dataclass methods, ...) are charged to the layer of the
  caller that spent the time in them, split by per-caller self time.
  Most layer work runs inside ``Environment.run`` callbacks, which is
  why a profiler hook is needed: wrappers on public calls alone would
  charge it all to the kernel.
* **Call counts** — counting wrappers on each layer's public entry
  points, for the layers that keep no counter of their own.

Whatever is not charged to a layer (the benchmark's own code, profiler
overhead, foreign code called from outside ``repro``) is ``other``, so
the layers plus ``other`` sum to the traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import os
import pstats
from collections import defaultdict

#: ``repro`` packages reported as layers, in report order
LAYERS = (
    "sim", "netsim", "mpisim", "pftool", "pfs", "disksim", "scheduler",
    "tapesim", "tsm", "hsm", "tapedb", "health", "faults", "recovery",
    "trace", "workloads", "archive",
)

#: counter -> (module, class, public methods whose calls it counts)
COUNTED = {
    "sim.store_ops": [
        ("repro.sim.resources", "Store", ("put", "put_nowait", "put_batch", "get")),
        ("repro.sim.resources", "FilterStore", ("get",)),
    ],
    "netsim.transfers": [("repro.netsim.fabric", "Fabric", ("transfer",))],
    "mpisim.messages": [("repro.mpisim.comm", "SimComm", ("send",))],
    "pftool.jobs": [("repro.pftool.job", "PftoolJob", ("__init__",))],
    "pfs.meta_ops": [(
        "repro.pfs.filesystem", "GpfsFileSystem",
        ("lookup", "exists", "mkdir", "readdir", "rename", "stat_op", "unlink_op"),
    )],
    "pfs.data_ops": [(
        "repro.pfs.filesystem", "GpfsFileSystem",
        ("read_file", "write_file", "read_range", "write_range", "create_sized"),
    )],
    "health.probes": [("repro.health", "HealthView", ("observe",))],
}


def _counting(fn, counts: dict, name: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    return wrapper


def install_counters() -> dict:
    """Wrap every entry point in :data:`COUNTED`; returns the live counts.

    The wrappers stay for the life of the process (one traced run each).
    """
    counts = dict.fromkeys(COUNTED, 0)
    for name, targets in COUNTED.items():
        for module, cls_name, methods in targets:
            cls = getattr(importlib.import_module(module), cls_name)
            for method in methods:
                setattr(cls, method, _counting(cls.__dict__[method], counts, name))
    return counts


class LayerMap:
    """Maps a profiled function to the layer that owns its code."""

    def __init__(self, repro_dir: str, bench_dir: str) -> None:
        self._repro = os.path.realpath(repro_dir) + os.sep
        self._bench = os.path.realpath(bench_dir) + os.sep
        self._memo: dict = {}

    def __call__(self, filename: str):
        """A layer name, ``"other"`` for unlisted ``repro`` packages and
        the benchmark itself, or ``None`` for foreign code."""
        if filename not in self._memo:
            self._memo[filename] = self._owner(filename)
        return self._memo[filename]

    def _owner(self, filename: str):
        # builtins report "~", generated code "<string>": both foreign
        path = os.path.realpath(filename) if filename.startswith(os.sep) else ""
        if path.startswith(self._repro):
            head = path[len(self._repro):].split(os.sep, 1)[0]
            layer = head[:-3] if head.endswith(".py") else head
            return layer if layer in LAYERS else "other"
        if path.startswith(self._bench):
            return "other"
        return None


def self_times(profile, layer_of: LayerMap) -> dict:
    """Layer -> self seconds from a finished ``cProfile.Profile``.

    Foreign functions are charged to their callers' layers in proportion
    to the self time spent under each caller; a foreign function called
    by foreign code inherits that caller's split (a few passes settle
    chains such as numpy -> builtin).
    """
    stats = pstats.Stats(profile).stats
    totals = defaultdict(float)
    #: foreign function -> {layer: share of its self time}
    split: dict = {}
    foreign = []
    for func, (_cc, _nc, tt, _ct, callers) in stats.items():
        layer = layer_of(func[0])
        if layer is not None:
            totals[layer] += tt
        else:
            foreign.append((func, tt, callers))
    for _ in range(4):
        for func, _tt, callers in foreign:
            weights = defaultdict(float)
            for caller, (_cnc, _ccc, ctt, _cct) in callers.items():
                owner = layer_of(caller[0])
                if owner is not None:
                    weights[owner] += ctt
                else:
                    for layer, share in split.get(caller, {}).items():
                        weights[layer] += ctt * share
            total = sum(weights.values())
            split[func] = ({k: v / total for k, v in weights.items()}
                           if total > 0 else {})
    for func, tt, _callers in foreign:
        for layer, share in split[func].items():
            totals[layer] += tt * share
    return dict(totals)
