"""Spans and counters recorded from the benchmark's own calls into `idag`.

An op calls each public library function through `tracer.call(name, fn,
*args)`. The untraced run passes `NULL`, whose `call` is a plain call, so
end-to-end numbers carry no tracing cost. The traced run passes a `Tracer`:
it keeps one span per call (name, start, end, parent span, op id) in memory
and hands `evaluate`/`interpret` a `CountingModel`, a pass-through model that
counts and times the PROP operations the library asks of it.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from time import perf_counter

from idag.models import Model
from idag.terms import Seq, Sym, Ten


class NullTracer:
    enabled = False

    def call(self, name, fn, *args):
        return fn(*args)

    def model(self, inner):
        return inner

    def count_expression(self, e, nodes: int) -> None:
        pass


NULL = NullTracer()


class Tracer:
    """Spans are lists [name, start, end, parent index or -1, op id, error
    type name or None], in the order the calls started."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op_id = -1
        self._stack: list = []

    def call(self, name, fn, *args):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op_id, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        try:
            return fn(*args)
        except Exception as exc:
            span[5] = type(exc).__name__
            raise
        finally:
            span[2] = perf_counter()
            self._stack.pop()

    def model(self, inner):
        return CountingModel(inner, self.counts)

    def count_expression(self, e, nodes: int) -> None:
        """Atoms and sym(1,1) atoms of a decomposition of an idag with this
        many nodes."""
        stack = [e]
        atoms = sym11 = 0
        while stack:
            x = stack.pop()
            if isinstance(x, Seq):
                stack += (x.first, x.then)
            elif isinstance(x, Ten):
                stack += (x.left, x.right)
            else:
                atoms += 1
                sym11 += isinstance(x, Sym) and x.n == 1 and x.m == 1
        self.counts["terms.atoms"] += atoms
        self.counts["decomposition.sym11_atoms"] += sym11
        self.counts["decomposed_nodes"] += nodes

    def self_times(self) -> dict:
        """Seconds per span name, each span's duration minus the part its
        child spans cover (children never overlap: one thread)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _op, _err in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = defaultdict(float)
        for k, (name, start, end, _p, _op, _err) in enumerate(self.spans):
            out[name] += end - start - child[k]
        return out

    def by_op(self, name: str) -> dict:
        """Total seconds of spans with this name, per op id."""
        out: dict = defaultdict(float)
        for n, start, end, _p, op, _err in self.spans:
            if n == name:
                out[op] += end - start
        return out

    def errors(self, name: str, error: str) -> int:
        return sum(1 for s in self.spans if s[0] == name and s[5] == error)


class CountingModel(Model):
    """Passes every call to the wrapped model; counts compose, tensor and
    relation calls with their busy seconds, and the summed width of the
    identities requested."""

    def __init__(self, inner: Model, counts: Counter) -> None:
        self.inner = inner
        self.counts = counts

    def _timed(self, name: str, fn, *args):
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            self.counts[name + ".s"] += perf_counter() - t0
            self.counts[name + ".calls"] += 1

    def identity(self, n: int):
        self.counts["models.identity.width"] += n
        return self.inner.identity(n)

    def symmetry(self, n: int, m: int):
        return self.inner.symmetry(n, m)

    def generator(self, gen):
        return self.inner.generator(gen)

    def compose(self, first, then):
        return self._timed("models.compose", self.inner.compose, first, then)

    def tensor(self, a, b):
        return self._timed("models.tensor", self.inner.tensor, a, b)

    def relation(self, mat):
        return self._timed("models.relation", self.inner.relation, mat)

    def equal(self, a, b) -> bool:
        return self.inner.equal(a, b)
