"""Outside-in tracer for fibkan.

The library is not changed. Its functions are replaced, for the duration of
a traced pass, by wrappers that record a span per call: span id, parent span
id, name, start and end. Spans stay in memory; self time (duration minus the
time covered by child spans) is computed when the pass is over.

A wrapper must be installed under every name its callers resolve: modules
bind functions at import (``from .qlinalg import kernel_basis``) and ``cli``
keeps its check runners in the ``COMMANDS`` table. ``install_function``
therefore rebinds every module attribute, and every list entry of a module
level dict, that refers to the original function. Methods are patched on
their class, which every caller resolves at call time.

Very hot functions get count-only wrappers: they add a call count and no
span, so their time stays in the self time of the enclosing span.
"""

from __future__ import annotations

import functools
import itertools
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []          # (span id, parent id, name, start, end)
        self.calls = Counter()   # name -> calls not nested in a same-name span
        self.entries = Counter()  # name -> summed input size of those calls
        self.keys = defaultdict(set)  # name -> distinct call keys
        self._ids = itertools.count(1)
        self._stack = [(0, None)]  # (span id, name) of the open spans
        self._undo = []

    # --- wrappers ------------------------------------------------------------

    def span(self, name, fn, size=None, key=None):
        """Wrap fn so that each call records a span called name.

        size(*args) gives the input size added to ``entries`` and key(*args)
        a hashable identity of the call's input; both are evaluated only for
        calls not nested directly in a span of the same name.
        """
        spans, stack, calls, clock = self.spans, self._stack, self.calls, self.clock
        ids = self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent, parent_name = stack[-1]
            if parent_name != name:
                calls[name] += 1
                if size is not None:
                    self.entries[name] += size(*args, **kwargs)
                if key is not None:
                    self.keys[name].add(key(*args, **kwargs))
            sid = next(ids)
            stack.append((sid, name))
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end))

        return traced

    def count(self, name, fn):
        """Wrap fn so that each call adds one to the count of name."""
        calls = self.calls

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    # --- installation --------------------------------------------------------

    def install_function(self, fn, wrapper, modules):
        """Rebind every reference to fn in the modules' namespaces."""
        found = False
        for module in modules:
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                if value is fn:
                    self._undo.append((setattr, module, attr, fn))
                    setattr(module, attr, wrapper)
                    found = True
                elif isinstance(value, dict):
                    for entry in value.values():
                        if not isinstance(entry, list):
                            continue
                        for i, item in enumerate(entry):
                            if item is fn:
                                self._undo.append(
                                    (list.__setitem__, entry, i, fn))
                                entry[i] = wrapper
                                found = True
        if not found:
            raise LookupError(f"{fn.__qualname__} is not bound in any module")

    def install_method(self, cls, attr, make_wrapper):
        """Replace cls.attr by make_wrapper(function), keeping classmethods."""
        raw = cls.__dict__[attr]
        self._undo.append((setattr, cls, attr, raw))
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(make_wrapper(raw.__func__)))
        else:
            setattr(cls, attr, make_wrapper(raw))

    def uninstall(self):
        while self._undo:
            setter, owner, key, original = self._undo.pop()
            setter(owner, key, original)

    # --- results -------------------------------------------------------------

    def self_times(self) -> dict:
        """name -> summed span duration minus the time of its child spans."""
        child = defaultdict(float)
        for _, parent, _, start, end in self.spans:
            child[parent] += end - start
        out = defaultdict(float)
        for sid, _, name, start, end in self.spans:
            out[name] += (end - start) - child[sid]
        return dict(out)

    def reuse_ratios(self) -> dict:
        """name -> distinct call keys divided by calls (1.0: nothing repeated)."""
        return {name: len(keys) / self.calls[name]
                for name, keys in self.keys.items() if self.calls[name]}
