"""Span recording around the calls between faultscope modules.

The benchmark never edits the package.  It replaces a function where another
module looks it up (a module attribute, a class attribute or an entry of the
CLI's generator table) with a wrapper that records one span per call, and
puts the original back afterwards.  Spans are kept in flat arrays in memory
and written out only when a run ends.

A span's self time is its duration minus the durations of its direct
children, so summing self times by name over one root span attributes every
moment of that root to exactly one layer.
"""

from __future__ import annotations

import sys
import time
from array import array

ROOT = -1


class Recorder:
    """Spans (name, start, end, parent) plus the patches that produce them."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [ROOT]
        self._patches: list[tuple] = []

    def clear(self) -> None:
        """Drop every recorded span; the arrays are emptied in place because
        the wrappers hold references to them."""
        if len(self._stack) != 1:
            raise RuntimeError("cannot clear while spans are open")
        for arr in (self.name, self.parent, self.start, self.end):
            del arr[:]

    def __len__(self) -> int:
        return len(self.name)

    def name_id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    # --- spans -------------------------------------------------------------

    def open(self, name: str) -> int:
        i = len(self.name)
        self.name.append(self.name_id(name))
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> float:
        t = time.perf_counter()
        self.end[i] = t
        if self._stack.pop() != i:
            raise RuntimeError("spans closed out of order")
        return t - self.start[i]

    def wrap(self, fn, name, observe=None):
        """``fn`` recording one span per call.

        ``name`` is a span name, or a function of the call's positional and
        keyword arguments that returns one.  ``observe(result, args, kwargs,
        seconds)`` sees every call that returns.
        """
        names, parents, starts, ends, stack = self.name, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter
        name_id = self.name_id
        fixed = name_id(name) if isinstance(name, str) else None

        def wrapper(*args, **kwargs):
            i = len(names)
            names.append(fixed if fixed is not None else name_id(name(args, kwargs)))
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            t0 = clock()
            starts.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                ends[i] = t1
                stack.pop()
            if observe is not None:
                observe(result, args, kwargs, t1 - t0)
            return result

        return wrapper

    # --- patching ----------------------------------------------------------

    def replace(self, owner, attr, value) -> None:
        """Set ``owner.attr`` (or ``owner[attr]`` for a dict) until restore()."""
        if isinstance(owner, dict):
            self._patches.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            self._patches.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)

    def patch(self, owner, attr: str, name, observe=None) -> None:
        """Wrap the function at ``owner.attr`` in place."""
        self.replace(owner, attr, self.wrap(getattr(owner, attr), name, observe))

    def patch_everywhere(self, fn, name, observe=None) -> None:
        """Wrap ``fn`` under every faultscope module attribute bound to it."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or mod_name.split(".")[0] != "faultscope":
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self.patch(module, attr, name, observe)

    def restore(self) -> None:
        """Undo every replace() and patch(), newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    # --- analysis ----------------------------------------------------------

    def _roots(self) -> list[int]:
        """Index of each span's root span (parents precede their children)."""
        parent = self.parent
        root = [0] * len(parent)
        for i, p in enumerate(parent):
            root[i] = i if p == ROOT else root[p]
        return root

    def by_root(self) -> dict[int, dict[str, list]]:
        """For each root span: name -> [calls, total seconds, self seconds]
        over the spans below it, the root included."""
        start, end, parent, name, names = self.start, self.end, self.parent, self.name, self.names
        dur = [b - a for a, b in zip(start, end)]
        child = [0.0] * len(dur)
        for i, p in enumerate(parent):
            if p != ROOT:
                child[p] += dur[i]
        out: dict[int, dict[str, list]] = {}
        for i, r in enumerate(self._roots()):
            row = out.setdefault(r, {}).setdefault(names[name[i]], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += dur[i]
            row[2] += dur[i] - child[i]
        return out

    def durations(self, name: str) -> dict[int, list[float]]:
        """Durations of the spans called ``name``, grouped by root span."""
        out: dict[int, list[float]] = {}
        target = self._ids.get(name)
        if target is None:
            return out
        for i, r in enumerate(self._roots()):
            if self.name[i] == target:
                out.setdefault(r, []).append(self.end[i] - self.start[i])
        return out

    def write(self, path) -> None:
        """Tab-separated lines: index, parent index, name, start, end."""
        names = self.names
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.name)):
                fh.write(f"{i}\t{self.parent[i]}\t{names[self.name[i]]}\t{self.start[i]!r}\t{self.end[i]!r}\n")
