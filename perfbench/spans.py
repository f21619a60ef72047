"""In-memory span recorder for the traced benchmark run.

The benchmark wraps calls into the package's public functions and methods
from outside the package: module attributes (``addgp.sparse.cholesky``)
and class attributes (``SparseModel.elbo_with_grads``) are replaced by
recording wrappers while tracing is installed, and restored afterwards, so
an untraced run executes the package's own code with no span recording.

A span is ``[id, parent, root, name, start, end, size]``: ``root`` is the
id of the top-level operation (a fit, a predict, a CLI call) the span ran
under, ``size`` an optional work measure computed from the call (bytes
returned, matrix dimension). Spans stay in memory until ``write``.
"""

from __future__ import annotations

import contextlib
import json
import time

ID, PARENT, ROOT, NAME, START, END, SIZE = range(7)


class Tracer:
    """Records spans from the wrappers it installs."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._root = None
        self._patches = []  # (owner, attr, original)

    # -- recording --------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        rec = [len(self.spans), parent, self._root, name, time.perf_counter(), None, None]
        self.spans.append(rec)
        self._stack.append(rec[ID])
        return rec

    def _close(self, rec):
        rec[END] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def op(self, name):
        """A top-level operation: every span opened inside shares its id
        as ``root``."""
        rec = self._open(name)
        outer, self._root = self._root, rec[ID]
        rec[ROOT] = rec[ID]
        try:
            yield rec
        finally:
            self._close(rec)
            self._root = outer

    def wrapper(self, fn, name, size=None, skip_inside=None):
        """Wrap ``fn`` so each call records a span. ``name`` is a string or
        a function of ``(args, kwargs)``; ``size(args, result)`` fills the
        span's size; calls made while the innermost open span's name starts
        with ``skip_inside`` pass straight through (nested kernel calls)."""

        def traced(*args, **kwargs):
            if skip_inside and self._stack and self.spans[self._stack[-1]][NAME].startswith(skip_inside):
                return fn(*args, **kwargs)
            rec = self._open(name if isinstance(name, str) else name(args, kwargs))
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if size is not None:
                rec[SIZE] = size(args, out)
            return out

        return traced

    # -- installing -------------------------------------------------------

    def patch(self, owner, attr, name, **kw):
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrapper(original, name, **kw))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @property
    def installed(self):
        return bool(self._patches)

    # -- analysis ---------------------------------------------------------

    def children(self):
        kids = {}
        for s in self.spans:
            if s[PARENT] is not None:
                kids.setdefault(s[PARENT], []).append(s)
        return kids

    def write(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(
                    ("id", "parent", "root", "name", "start", "end", "size"), s
                ))) + "\n")


def duration(span):
    return span[END] - span[START]


def self_time(span, kids):
    """Span duration minus the time its child spans cover (children of one
    thread run one after another, so their union is their sum)."""
    return duration(span) - sum(duration(k) for k in kids.get(span[ID], ()))


def descendants(span, kids):
    out = []
    todo = list(kids.get(span[ID], ()))
    while todo:
        s = todo.pop()
        out.append(s)
        todo.extend(kids.get(s[ID], ()))
    return out
