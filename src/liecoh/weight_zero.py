"""The weight-zero subcomplex behind `cohomology.ce_cohomology`.

Plain and module cohomology dims are those of the cells of weight zero
under one element X; the `cohomology` module docstring gives the argument
(Cartan's formula), when the route applies and how it falls back.  The
route is a module of its own because only plain and module cohomology
run it: the bigraded, relative and decompose commands do not compile it.

Names of `cohomology` and `linalg` are looked up on those modules when
called, so that a wrapper or a test double installed there sees these
calls too.
"""

from __future__ import annotations

from . import cohomology, linalg
from .linalg import ExactMatrix
from .scalars import ZERO, InputError, value_key


def weight_zero_cells(lam, mu):
    """cells[k] for k = 0..n+1: the cells (S, a) with |S| = k of weight
    mu[a] - sum of lam[s] over S equal to zero, in the order of
    `cohomology._cells`, for int-pair weights.

    A depth-first walk adds indices in increasing order and enters an
    index s only when the weight still missing is a sum over a subset of
    the indices after s; reach[i] holds those sums, so the walk enters no
    branch without a cell and never meets the 2^n subsets."""
    n = len(lam)
    reach = [set() for _ in range(n)] + [{(0, 0)}]
    for i in range(n - 1, -1, -1):
        re, im = lam[i]
        reach[i] = reach[i + 1] | {(x + re, y + im) for x, y in reach[i + 1]}
    cells = [[] for _ in range(n + 2)]

    def walk(start, subset, need, modules):
        if need == (0, 0):
            cells[len(subset)].extend((subset, a) for a in modules)
        for s in range(start, n):
            rest = (need[0] - lam[s][0], need[1] - lam[s][1])
            if rest in reach[s + 1]:
                walk(s + 1, subset + (s,), rest, modules)

    targets = {}
    for a, weight in enumerate(mu):
        targets.setdefault(weight, []).append(a)
    for weight, modules in targets.items():
        if weight in reach[0]:
            walk(0, (), weight, modules)
    return [sorted(degree) for degree in cells]


def _eigenbasis(split, key):
    """(weights, vectors) of an `EigenSplit`: one int-pair weight `key`
    of its eigenvalue and one list per eigenvector."""
    return (
        [key(value) for value, vectors in split.pairs for _ in vectors],
        [list(v) for _, vectors in split.pairs for v in vectors],
    )


def _check_weights(structure, lam, mu):
    """AssertionError unless every nonzero bracket and action coefficient
    of the integer structure respects the weights: [f_a, f_b] lies in
    weight lam_a + lam_b, and f_i moves m_c to weight mu_c + lam_i."""
    _, brackets, acts = structure
    for (a, b), coeffs in brackets.items():
        target = (lam[a][0] + lam[b][0], lam[a][1] + lam[b][1])
        if any(lam[l] != target for l, _ in coeffs):
            raise AssertionError(
                f"weight leak: the bracket of weight vectors {a + 1} and {b + 1} "
                "has a component of another weight"
            )
    for i, rows in enumerate(acts):
        for r, row in enumerate(rows):
            if any(mu[r] != (mu[c][0] + lam[i][0], mu[c][1] + lam[i][1]) for c in row):
                raise AssertionError(
                    f"weight leak: weight vector {i + 1} moves a module weight vector onto "
                    f"module weight vector {r + 1}, of another weight"
                )


def _most_bracketed(ba):
    """The basis element with the most nonzero brackets [X, e_k], the
    first of those: a scan of the bracket table, no elimination.  A
    regular element of a torus keeps the fewest cells of weight zero, and
    brackets with more of the basis is a cheap sign of one: on builtin su3,
    X2 to Y3 (7 each) come before T1, X1, Y1 (6) and the non-regular T2
    (4)."""
    counts = [0] * ba.dim
    for (a, b), coeffs in ba._table.items():
        if coeffs:
            counts[a] += 1
            counts[b] += 1
    return max(range(ba.dim), key=counts.__getitem__)


def weight_complex(ba, module):
    """The weight-zero subcomplex of the cochain complex of the
    `BasisedAlgebra` ba with coefficients in `module`, verified to square
    to zero, or None where it does not apply: ba is abelian, so that no
    basis element X has a nonzero ad, or ad X or X's action on a
    nontrivial module does not split over Q(i) within the root search's
    reach, with a full eigenbasis.

    X is `_most_bracketed(ba)`.  The complex is written on the eigenbases
    f_s of ad X and m_a of X's action, with int-pair weights lam_s and mu_a
    over one common denominator; the cell (S, a) has weight mu_a - sum of
    lam_s over S.  A bracket or action
    coefficient that moves a weight, which would make d leak between
    weight blocks, raises AssertionError."""
    if not ba._table:
        return None
    n, dim_m = ba.dim, module.dim
    x = _most_bracketed(ba)
    columns = [ba.coeffs(x, k) for k in range(n)]
    ad = ExactMatrix._of(n, n, [[col.get(l, ZERO) for col in columns] for l in range(n)])
    trivial = all(v.is_zero() for a in module.actions for row in a._data for v in row)
    try:
        split = linalg.split_eigen(ad)
        module_split = None if trivial else linalg.split_eigen(module.actions[x])
    except InputError:  # no split over Q(i), or past the root-search limit
        return None
    if not split.diagonalizable or not (trivial or module_split.diagonalizable):
        return None
    key = value_key([value for s in (split, module_split) if s for value, _ in s.pairs])
    lam, eigen = _eigenbasis(split, key)
    weight_basis = cohomology.BasisedAlgebra(
        ba.parent, ExactMatrix._of(n, n, eigen).matmul(ba._cols.transpose()).row_list()
    )
    if trivial:
        mu, actions = [(0, 0)] * dim_m, module.actions
    else:
        # the columns of W are the eigenvectors m_a; f_i acts by W^-1 rho(f_i) W
        mu, module_eigen = _eigenbasis(module_split, key)
        w = ExactMatrix._of(dim_m, dim_m, [list(row) for row in zip(*module_eigen)])
        inverse, _ = linalg._solve_columns(w, ExactMatrix.identity(dim_m)._data)
        w_inv = ExactMatrix._of(dim_m, dim_m, [list(row) for row in zip(*inverse)])
        actions = [
            w_inv.matmul(a).matmul(w) for a in cohomology._rebased_actions(module, eigen)
        ]
    structure = cohomology._integer_structure(weight_basis, actions)
    _check_weights(structure, lam, mu)
    cells = weight_zero_cells(lam, mu)
    complex_ = cohomology.CochainComplex(labels={}, int_differentials={
        k: cohomology._differential_matrix(structure, cells[k + 1], cells[k])
        for k in range(n + 1)
    })
    complex_.verify()
    return complex_
