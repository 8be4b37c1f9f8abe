"""Root space decomposition under a torus subalgebra.

The adjoint operators of an abelian torus t commute, so the ambient
algebra splits into simultaneous eigenspaces; the nonzero eigenvalue
tuples are the roots and every component is purely imaginary for the
compact real forms handled here.  A positive system picks exactly one of
each +/- pair, closed under addition; the lexicographic rule does this
deterministically and a user-specified choice can be supplied instead.
The standard structures are built as u + (sum of positive root spaces)
for a torus subspace u made of s real basis vectors and t/2 conjugate
pairs.
"""

from __future__ import annotations

from collections import namedtuple

from .algebra import AlgebraError, LieAlgebra
from .classify import classify_structure
from .linalg import NonSplitError, as_scalar, refine_eigen, vec_is_zero
from .scalars import GaussianRational, ZERO, format_scalar, value_key
from .subalgebra import Subalgebra


class NonAbelianTorusError(AlgebraError):
    def __init__(self, witness):
        super().__init__(f"torus is not abelian: bracket of basis rows {witness} is nonzero")
        self.witness = witness


class NonSplitActionError(AlgebraError):
    def __init__(self, j: int, detail: str):
        super().__init__(f"ad of torus generator {j} does not split over Q(i): {detail}")
        self.generator = j


class NonSemisimpleActionError(AlgebraError):
    def __init__(self, j: int):
        super().__init__(f"ad of torus generator {j} is not diagonalizable")
        self.generator = j


class GradingError(AlgebraError):
    pass


class RootDatum(namedtuple(
    "RootDatum", "algebra torus roots spaces zero_space torus_is_maximal notes"
)):
    """Simultaneous eigenspace decomposition of g under a torus t.

    roots are tuples of purely imaginary scalars (one per torus
    generator); spaces maps each root to its eigenspace and zero_space is
    the full centralizer of t (equal to t itself exactly when t is
    maximal, recorded in torus_is_maximal).
    """

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {
            "torus": self.torus.to_json_dict(),
            "roots": [[format_scalar(x) for x in alpha] for alpha in self.roots],
            "spaces": {
                ",".join(format_scalar(x) for x in alpha): self.spaces[alpha].to_json_dict()
                for alpha in self.roots
            },
            "zero_space": self.zero_space.to_json_dict(),
            "torus_is_maximal": self.torus_is_maximal,
            "notes": list(self.notes),
        }


def _sorted_roots(roots):
    """Roots in lexicographic order of their components, each by real
    part, then imaginary part."""
    key = value_key([x for alpha in roots for x in alpha])
    return sorted(roots, key=lambda alpha: tuple(map(key, alpha)))


def root_decomposition(g: LieAlgebra, t: Subalgebra) -> RootDatum:
    """The simultaneous eigenspaces of ad t on g: `linalg.refine_eigen`
    splits the standard basis by each ad T_j in turn, and a T_j whose ad
    does not split over Q(i), or does not diagonalize, is refused."""
    if t.parent != g:
        raise AlgebraError("torus does not belong to the given algebra")
    tv = t.vectors()
    for a in range(len(tv)):
        for b in range(a + 1, len(tv)):
            if not vec_is_zero(g.bracket(tv[a], tv[b])):
                raise NonAbelianTorusError((a, b))
    blocks = [((), [g.basis_vector(k) for k in range(g.dim)])]
    for j, tvec in enumerate(tv):
        try:
            blocks = refine_eigen(blocks, g.ad_matrix(tvec))
        except NonSplitError as exc:
            raise NonSplitActionError(j, str(exc)) from exc
        if blocks is None:
            raise NonSemisimpleActionError(j)
    spaces = {}
    zero_key = tuple([ZERO] * len(tv))
    zero_space = Subalgebra.span(g, [])
    roots = []
    for prefix, vectors in blocks:
        space = Subalgebra.span(g, vectors)
        if prefix == zero_key:
            zero_space = space
            continue
        roots.append(prefix)
        spaces[prefix] = space
    for alpha in roots:
        for x in alpha:
            if x._t[0] != 0:  # a nonzero real part
                raise GradingError(
                    f"root component {format_scalar(x)} is not purely imaginary; "
                    "the decomposition expects a compact real form"
                )
    roots = _sorted_roots(roots)
    _verify_grading(g, roots, spaces, zero_space)
    notes = (
        "adjoint action satisfies [T_j, L] = +i*Lambda_j L on the eigenvectors; "
        "the structure-constant table is authoritative for the sign",
    )
    return RootDatum(
        algebra=g,
        torus=t,
        roots=tuple(roots),
        spaces=spaces,
        zero_space=zero_space,
        torus_is_maximal=zero_space == t,
        notes=notes,
    )


def _verify_grading(g: LieAlgebra, roots, spaces, zero_space):
    """[g_alpha, g_beta] must land in g_{alpha+beta}, the centralizer when
    alpha + beta = 0, and vanish when alpha + beta is not a root."""
    root_set = set(roots)
    zero_key = tuple([ZERO] * (len(roots[0]) if roots else 0))
    for alpha in roots:
        for beta in roots:
            target = tuple(a + b for a, b in zip(alpha, beta))
            for u in spaces[alpha].vectors():
                for v in spaces[beta].vectors():
                    w = g.bracket(u, v)
                    if vec_is_zero(w):
                        continue
                    if target in root_set:
                        ok = spaces[target].contains(w)
                    elif target == zero_key:
                        ok = zero_space.contains(w)
                    else:
                        ok = False
                    if not ok:
                        raise GradingError(
                            f"bracket of root spaces {format_root(alpha)} and {format_root(beta)} "
                            f"leaves the expected component"
                        )


def format_root(alpha) -> str:
    """A root as the `roots` command prints it: (i,3i)."""
    return "(" + ",".join(format_scalar(x) for x in alpha) + ")"


class PositiveSystem(namedtuple("PositiveSystem", "positive_roots")):
    """A choice of exactly one of each +/- root pair, closed under addition."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {"positive_roots": [[format_scalar(x) for x in a] for a in self.positive_roots]}


class PositiveSystemError(AlgebraError):
    pass


def positive_system(rd: RootDatum, override=None) -> PositiveSystem:
    """Lexicographic rule: alpha is positive when the first nonzero entry of
    (alpha_1/i, ...) is positive.  An explicit override list is validated
    for the one-of-each-pair and closure properties."""
    roots = list(rd.roots)
    if override is not None:
        chosen = []
        root_set = set(roots)
        for alpha in override:
            alpha = tuple(as_scalar(x) for x in alpha)
            if alpha not in root_set:
                raise PositiveSystemError(f"override entry {format_root(alpha)} is not a root")
            chosen.append(alpha)
        chosen_set = set(chosen)
        if len(chosen_set) != len(chosen):
            raise PositiveSystemError("override lists a root twice")
        for alpha in roots:
            neg = tuple(-x for x in alpha)
            if (alpha in chosen_set) == (neg in chosen_set):
                raise PositiveSystemError(
                    "override must contain exactly one of each root and its negative"
                )
    else:
        chosen = [alpha for alpha in roots if _lex_positive(alpha)]
        chosen_set = set(chosen)
    violations = []
    root_set = set(roots)
    for a in chosen:
        for b in chosen:
            s = tuple(x + y for x, y in zip(a, b))
            if s in root_set and s not in chosen_set:
                violations.append((a, b))
    if violations:
        a, b = violations[0]
        raise PositiveSystemError(f"positive system is not closed under addition: "
                                  f"witness {format_root(a)} + {format_root(b)}")
    return PositiveSystem(positive_roots=tuple(_sorted_roots(chosen_set)))


def _lex_positive(alpha) -> bool:
    # the sign of x.im is that of b in the triple (a, b, d), as d > 0
    for x in alpha:
        if x._t[1] > 0:
            return True
        if x._t[1] < 0:
            return False
    return False


class StandardStructure(namedtuple(
    "StandardStructure",
    "subalgebra torus_part s t positive predicted report prediction_matches",
)):
    """A standard subalgebra u + (positive root spaces) with its predicted
    and verified classification."""

    __slots__ = ()


def build_standard(rd: RootDatum, s: int, t: int, plus: PositiveSystem | None = None) -> StandardStructure:
    """h = u + sum of positive root spaces, where u takes the first s torus
    basis vectors as they are and combines the next t into t/2 conjugate
    pairs X + iX' (the remaining rank - s - t are left out).

    Predicted classification: elliptic iff s + t = rank, complex iff
    s = 0 and t = rank, CR iff s = 0, essentially real iff t = 0 and
    there are no roots; the prediction is cross-checked exactly.
    """
    g = rd.algebra
    rank = rd.torus.dim
    if s < 0 or t < 0 or s + t > rank:
        raise AlgebraError(f"inconsistent parameters: need s, t >= 0 and s + t <= rank {rank}")
    if t % 2 != 0:
        raise AlgebraError("inconsistent parameters: pairing requires an even number of paired vectors")
    rows = rd.torus.vectors()
    for row in rows:
        if any(not x.is_real() for x in row):
            raise AlgebraError("standard construction needs a real torus basis")
    u_vectors = [rows[i] for i in range(s)]
    for a in range(s, s + t, 2):
        u_vectors.append(
            [x + GaussianRational(0, 1) * y for x, y in zip(rows[a], rows[a + 1])]
        )
    if plus is None:
        plus = positive_system(rd)
    vectors = list(u_vectors)
    for alpha in plus.positive_roots:
        vectors.extend(rd.spaces[alpha].vectors())
    h = Subalgebra.span(g, vectors)
    witness = h.is_subalgebra()
    if witness is not None:
        raise GradingError(f"standard structure is not bracket-closed: witness rows {witness}")
    predicted = {
        "elliptic": s + t == rank,
        "complex": s == 0 and t == rank,
        "cr": s == 0,
        "essentially_real": t == 0 and len(plus.positive_roots) == 0,
    }
    report = classify_structure(g, h)
    actual = {
        "elliptic": report.elliptic,
        "complex": report.complex_structure,
        "cr": report.cr,
        "essentially_real": report.essentially_real,
    }
    return StandardStructure(
        subalgebra=h,
        torus_part=Subalgebra.span(g, u_vectors),
        s=s,
        t=t,
        positive=plus,
        predicted=predicted,
        report=report,
        prediction_matches=predicted == actual,
    )
