"""In-memory spans around the program's layer functions, installed from outside.

The tracer replaces a module or class attribute with a wrapper that records a
span (name, start, end, parent) and puts the original back on ``restore``.
Nothing under ``src/`` changes: every wrapper sits under the name its caller
looks up when it calls.
"""

import functools
import json
import time
from contextlib import contextmanager


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.attrs = {}

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Records nested spans of one thread; call ``restore`` when done."""

    def __init__(self):
        self.spans = []
        self.errors = 0  # exceptions that passed through a span
        self._stack = []
        self._patches = []

    @contextmanager
    def span(self, name):
        rec = Span(name, time.perf_counter(), self._stack[-1] if self._stack else None)
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        except BaseException:
            self.errors += 1
            raise
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, owner, attr, name, note=None):
        """Make ``owner.attr`` record a span called ``name`` on every call.

        ``note(span, args, result)`` runs after the span has closed and keeps
        references to the inputs and outputs that work counts are derived
        from once the run is over. Its time falls to the parent span, so it
        must only store references.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = original(*args, **kwargs)
            if note is not None:
                note(rec, args, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def self_times(self):
        """Each span's duration minus the time its direct children cover."""
        out = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.duration
        return out

    def dump(self, path):
        rows = [{"name": s.name, "start": s.start, "end": s.end, "parent": s.parent}
                for s in self.spans]
        path.write_text(json.dumps(rows) + "\n")
