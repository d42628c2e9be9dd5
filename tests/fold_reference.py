"""Reference code: evaluation by a compose/tensor fold over the expression.

evaluate() gave every model outside models._NATIVE its value this way: it
type-checked the expression with arity_of, then folded it, asking the model
for the relation of the permutation matrix of each id and sym, for
generator(a) at every other atom, and for compose and tensor at each
composite. It now gives such a model the free image slice by slice. The
tests play evaluate() against this fold, which reads the expression tree
and not its image.
"""

from __future__ import annotations

from idag.errors import _check_type
from idag.matrices import matrix_permutation
from idag.models import Model
from idag.terms import Expression, Id, Sym, arity_of, fold
from idag.weights import BOOL


def evaluate(e: Expression, model: Model):
    """e's value in model by the compose/tensor fold over e."""
    _check_type(model, Model)
    arity_of(e)

    def atom(a: Expression):
        if type(a) is Id:
            return model.relation(matrix_permutation(range(a.n), BOOL))
        if type(a) is Sym:
            # input i goes to output m+i, input n+j to output j
            perm = [a.m + i for i in range(a.n)] + list(range(a.m))
            return model.relation(matrix_permutation(perm, BOOL))
        return model.generator(a)

    return fold(
        e,
        atom,
        lambda _n, a, b: model.compose(a, b),
        lambda _n, a, b: model.tensor(a, b),
    )
