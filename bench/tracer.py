"""Outside-in span tracer for spinframe's layers.

The tracer wraps functions of the six layer modules from outside the program:
every public function (the module's ``__all__``) and every function another
module imports across a layer boundary, such as ``gates._cnot_from_w``.  Each
wrapper is bound at every module attribute that holds the original, so
``from .linalg import kron`` copies and the ``spinframe`` re-exports all call
the wrapper.  A span is (name, start, end, parent), kept in flat arrays in
memory and written out at the end.  Self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array

PACKAGE = "spinframe"
LAYERS = ("cli", "analysis", "gates", "frame", "model", "linalg")


class Tracer:
    """Spans of the wrapped functions; install() binds the wrappers and
    uninstall() puts the originals back."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ix = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        modules = [importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS]
        owners = modules + [importlib.import_module(PACKAGE)]
        bound_in = {}
        for owner in owners:
            for value in vars(owner).values():
                if inspect.isfunction(value):
                    bound_in.setdefault(id(value), set()).add(owner.__name__)
        wrappers = {}
        for layer, module in zip(LAYERS, modules):
            public = set(getattr(module, "__all__", ()))
            for attr, fn in vars(module).items():
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                if attr in public or bound_in[id(fn)] - {module.__name__, PACKAGE}:
                    wrappers[id(fn)] = (fn, self._wrap(fn, f"{layer}.{fn.__name__}"))
        self._bindings = [
            (owner, attr, *wrappers[id(value)])
            for owner in owners
            for attr, value in vars(owner).items()
            if id(value) in wrappers
        ]

    def _wrap(self, fn, name: str):
        ix = len(self.names)
        self.names.append(name)
        names, parent, start, end, stack = self.name_ix, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            names.append(ix)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._bindings:
            setattr(owner, attr, original)

    def arrays(self) -> dict:
        import numpy as np

        # Copies, so the arrays stay free to grow.
        name_ix = np.frombuffer(self.name_ix, dtype=np.int32).copy()
        parent = np.frombuffer(self.parent, dtype=np.int32).copy()
        start = np.frombuffer(self.start, dtype=np.float64).copy()
        dur = np.frombuffer(self.end, dtype=np.float64) - start
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return {"name_ix": name_ix, "parent": parent, "start": start, "dur": dur,
                "self": dur - child}

    def save(self, path) -> None:
        import numpy as np

        a = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name_ix=a["name_ix"],
                            parent=a["parent"], start=a["start"], end=a["start"] + a["dur"])
