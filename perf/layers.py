"""Map a source file of ``src/repro`` to the layer its cost is charged to.

Layers are this repo's modules.  The rules are path prefixes relative to
``src/repro`` (longest prefix wins); a file no rule names falls into a layer
named after its top-level package (``bench/foo.py`` -> ``bench``,
``newthing.py`` -> ``newthing``), so a PR that adds a module never has to
edit the benchmark.  Code that is not under ``src/repro`` at all — the
harness, the standard library when nothing of ours is on the stack — is
``outside``.
"""

from __future__ import annotations

import os
from typing import Optional

__all__ = ["LAYERS", "OUTSIDE", "layer_of_relpath", "LayerMap"]

OUTSIDE = "outside"

#: (path prefix relative to src/repro, layer).  A prefix ending in "/" names
#: a package, anything else one file.
_RULES = (
    ("__init__.py", "scenario"),
    ("scenario.py", "scenario"),
    ("scales.py", "scenario"),
    ("registry.py", "scenario"),
    ("workloads/", "workloads"),
    ("arrivals.py", "arrivals"),
    ("cluster/", "cluster"),
    ("txn/", "txn"),
    ("core/", "core"),
    ("protocols/", "protocols"),
    ("storage/columnar.py", "storage.columnar"),
    ("storage/table.py", "storage.table"),
    ("storage/record.py", "storage.table"),
    ("storage/partition.py", "storage.table"),
    ("storage/lock.py", "storage.lock"),
    ("sim/engine.py", "sim.engine"),
    ("sim/_pykernel.py", "sim.engine"),
    ("sim/network.py", "sim.network"),
    ("sim/topology.py", "sim.network"),
    ("sim/randgen.py", "sim.randgen"),
    ("sim/stats.py", "sim.stats"),
    ("sim/sketch.py", "sim.stats"),
    ("commit/", "commit"),
    ("replication/", "replication"),
    ("faults.py", "faults"),
)

#: The layers BENCHMARK.json names metrics for, in report order.
LAYERS = tuple(dict.fromkeys(layer for _, layer in _RULES)) + (OUTSIDE,)


def layer_of_relpath(relpath: str) -> str:
    """Layer of a file given by its path relative to ``src/repro``."""
    relpath = relpath.replace(os.sep, "/")
    best = ""
    layer = None
    for prefix, name in _RULES:
        if len(prefix) > len(best) and (
            relpath == prefix or (prefix.endswith("/") and relpath.startswith(prefix))
        ):
            best, layer = prefix, name
    if layer is not None:
        return layer
    head, _, rest = relpath.partition("/")
    return head if rest else os.path.splitext(head)[0]


class LayerMap:
    """Absolute file name -> layer, cached (the sampler asks per stack frame)."""

    def __init__(self, package_dir: str):
        self._root = os.path.realpath(package_dir) + os.sep
        self._cache: dict[str, Optional[str]] = {}

    def files(self, layer: str) -> list:
        """Every ``.py`` file of the package that belongs to ``layer``."""
        found = []
        for directory, _dirs, names in os.walk(self._root):
            for name in sorted(names):
                path = os.path.join(directory, name)
                if name.endswith(".py") and self.get(path) == layer:
                    found.append(path)
        return found

    def get(self, filename: str) -> Optional[str]:
        """The layer of ``filename``, or ``None`` when it is not ours."""
        try:
            return self._cache[filename]
        except KeyError:
            pass
        real = os.path.realpath(filename)
        layer = None
        if real.startswith(self._root):
            layer = layer_of_relpath(real[len(self._root):])
        self._cache[filename] = layer
        return layer
