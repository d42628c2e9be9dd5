"""Shared generators and models for the test suite."""

from idag.models import Model
from idag.terms import Delta, Eps, Eta, Id, Nabla, Node, Sym, ten_all


def consume_row(rng, width, wiring_only):
    """A random expression with the given input arity (one tensor row)."""
    parts = []
    left = width
    while left > 0:
        roll = rng.random()
        if wiring_only:
            if roll < 0.3 and left >= 2:
                parts.append(Sym(1, 1))
                left -= 2
            elif roll < 0.6:
                parts.append(Node(rng.choice(("x", "y"))))
                left -= 1
            else:
                k = rng.randint(1, left)
                parts.append(Id(k))
                left -= k
        else:
            if roll < 0.15 and left >= 2:
                parts.append(Nabla())
                left -= 2
            elif roll < 0.3:
                parts.append(Delta())
                left -= 1
            elif roll < 0.4:
                parts.append(Eps())
                left -= 1
            elif roll < 0.5:
                parts.append(Node(rng.choice(("x", "y"))))
                left -= 1
            elif roll < 0.6 and left >= 2:
                parts.append(Sym(1, 1))
                left -= 2
            else:
                k = rng.randint(1, left)
                parts.append(Id(k))
                left -= k
    if not wiring_only and rng.random() < 0.3:
        parts.append(Eta())
    return ten_all(parts)


class Forwarding(Model):
    """Passes every call to the wrapped model. evaluate() sees only a Model,
    so it folds compose and tensor even around a FreeIdagModel: the
    reference for the free model's wire-list evaluation."""

    def __init__(self, inner):
        self.inner = inner

    def identity(self, n):
        return self.inner.identity(n)

    def symmetry(self, n, m):
        return self.inner.symmetry(n, m)

    def generator(self, gen):
        return self.inner.generator(gen)

    def compose(self, first, then):
        return self.inner.compose(first, then)

    def tensor(self, a, b):
        return self.inner.tensor(a, b)

    def relation(self, mat):
        return self.inner.relation(mat)

    def equal(self, a, b):
        return self.inner.equal(a, b)
