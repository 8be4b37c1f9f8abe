"""Seeded inputs, query lists and answer checks for the liecoh benchmark.

The seed changes only the *presentation* of su(3): a signed permutation
of the builtin basis, and where a workload needs one, a Weyl chamber for
the standard structures.  It never changes the isomorphism class of any
input, so every expected answer in this file holds for every seed.  The
answers come from theorems, invariants, or tables recorded once:

* H^*(su(3)) = (1+t^3)(1+t^5) (Chevalley-Eilenberg, Trans. AMS 63, 1948);
* every row of a bigraded table satisfies the Euler identity
  sum_q (-1)^q dim H^{p,q} = sum_q (-1)^q C(m,p) C(n,q);
* a bigraded table is invariant under isomorphism of the pair (g, h),
  and Weyl-group elements carry one chamber's standard structure to
  another's, so each structure class has one reference table;
* the Kunneth/Bott assembly must reproduce the bigraded table;
* the torus solve is checked by redoing the modewise division here.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import comb
from pathlib import Path

# ---------------------------------------------------------------------------
# reference answers (identical for every seed)
# ---------------------------------------------------------------------------

SU3_BETTI = [1, 0, 0, 1, 0, 1, 0, 0, 1]

# H^{p,q} rows (p = 0, 1, ...; entries over q = 0..n), recorded once from
# the builtin su3 presentation and the chamber of X1-iY1, X2-iY2, X3-iY3.
BIGRADED_REFERENCE = {
    "elliptic": [[1, 2, 1, 0, 0, 0], [0, 2, 4, 2, 0, 0], [0, 0, 2, 4, 2, 0], [0, 0, 0, 1, 2, 1]],
    "complex": [[1, 1, 0, 0, 0], [0, 1, 1, 0, 0], [0, 0, 0, 0, 0], [0, 0, 1, 1, 0], [0, 0, 0, 1, 1]],
    "cr": [[1, 2, 2, 1], [1, 4, 5, 2], [3, 7, 7, 3], [3, 7, 7, 3], [2, 5, 4, 1], [1, 2, 2, 1]],
}

# (s, t) of build_standard for each structure class, and its flags.
STANDARD = {"elliptic": (2, 0), "complex": (0, 2), "cr": (0, 0)}
FLAGS = {
    "elliptic": {"elliptic": True, "complex": False, "cr": False, "essentially_real": False},
    "complex": {"elliptic": True, "complex": True, "cr": True, "essentially_real": False},
    "cr": {"elliptic": False, "complex": False, "cr": True, "essentially_real": False},
    "levi": {"elliptic": False, "complex": False, "cr": False, "essentially_real": False},
}
CLASSIFY_DIMS = {
    "cr": {"ambient": 8, "h": 3, "h_conj": 3, "h_plus_conj": 6, "h_cap_conj": 0},
    "levi": {"ambient": 8, "h": 4, "h_conj": 4, "h_plus_conj": 7, "h_cap_conj": 1},
}
# span{X1-iY1, X2-iY2, X3-iY3, 2T1+3T2}: 2T1+3T2 lies on no coroot line, so
# the Levi form is nondegenerate off h/\conj(h) with signature (1,2) at one
# sign of the characteristic covector and (2,1) at the other.
LEVI_TORUS = {"T1": 2, "T2": 3}
LEVI_INERTIAS = [[1, 2, 1], [2, 1, 1]]
LEVI_VERDICT = "hypocomplex_by_bct"

# torus-solve --cf: golden-ratio quotients; convergents are checked here
# and the verdict against the one recorded once.
CF_QUOTIENTS = [1] * 12
CF_DEPTH = 8
CF_VERDICT = "diophantine_evidence"

# ---------------------------------------------------------------------------
# Gaussian rationals as (re, im) Fraction pairs, independent of the library
# ---------------------------------------------------------------------------

_RAT = r"\d+(?:/\d+)?"
_SCALAR = re.compile(
    rf"^(?:(?P<re>-?{_RAT})"
    rf"|(?P<neg>-)?(?P<im>{_RAT})?i"
    rf"|(?P<re2>-?{_RAT})(?P<sign>[+-])(?P<im2>{_RAT})?i)$"
)


def parse_gauss(text: str):
    """Parse the library's scalar grammar into an (re, im) Fraction pair."""
    m = _SCALAR.match(text.strip())
    if not m:
        raise ValueError(f"not a scalar: {text!r}")
    if m.group("re") is not None:
        return Fraction(m.group("re")), Fraction(0)
    if m.group("re2") is not None:
        im = Fraction(m.group("im2") or 1)
        return Fraction(m.group("re2")), -im if m.group("sign") == "-" else im
    im = Fraction(m.group("im") or 1)
    return Fraction(0), -im if m.group("neg") else im


def format_gauss(z) -> str:
    re_, im = z
    if im == 0:
        return str(re_)
    mag = "" if abs(im) == 1 else str(abs(im))
    if re_ == 0:
        return ("-" if im < 0 else "") + mag + "i"
    return f"{re_}{'-' if im < 0 else '+'}{mag}i"


def gauss_div(a, b):
    n = b[0] * b[0] + b[1] * b[1]
    return ((a[0] * b[0] + a[1] * b[1]) / n, (a[1] * b[0] - a[0] * b[1]) / n)


# ---------------------------------------------------------------------------
# presentations
# ---------------------------------------------------------------------------


def base_su3():
    """Basis names and structure constants {(j, k): {l: Fraction}} of the
    library's builtin su3, the presentation every seed permutes."""
    from liecoh.algebra import su3

    data = su3().to_json_dict()
    names = list(data["basis"])
    index = {n: i for i, n in enumerate(names)}
    table = {}
    for item in data["brackets"]:
        a, b = (index[x] for x in item["on"])
        table[(a, b)] = {index[n]: Fraction(c) for n, c in item["result"].items()}
    return names, table


@dataclass
class Presentation:
    """The algebra in the basis b_i = signs[i] * e_{perm[i]} of a base
    presentation e, with basis names b1..bn."""

    base_names: list
    base_table: dict
    perm: list
    signs: list
    names: list = field(init=False)
    table: dict = field(init=False)

    def __post_init__(self):
        n = len(self.base_names)
        self.names = [f"b{i + 1}" for i in range(n)]
        inv = {p: i for i, p in enumerate(self.perm)}
        self.table = {}
        for i in range(n):
            for j in range(i + 1, n):
                a, b, flip = self.perm[i], self.perm[j], 1
                if a > b:
                    a, b, flip = b, a, -1
                out = {}
                for l, c in self.base_table.get((a, b), {}).items():
                    k = inv[l]
                    out[k] = c * flip * self.signs[i] * self.signs[j] * self.signs[k]
                if out:
                    self.table[(i, j)] = out

    @classmethod
    def draw(cls, base_names, base_table, rng: random.Random) -> "Presentation":
        n = len(base_names)
        perm = rng.sample(range(n), n)
        signs = [rng.choice((1, -1)) for _ in range(n)]
        return cls(base_names, base_table, perm, signs)

    def to_json_dict(self, name: str = "su3") -> dict:
        return {
            "name": name,
            "basis": list(self.names),
            "brackets": [
                {
                    "on": [self.names[j], self.names[k]],
                    "result": {self.names[l]: str(c) for l, c in sorted(coeffs.items())},
                }
                for (j, k), coeffs in sorted(self.table.items())
            ],
        }

    def span(self, vectors) -> str:
        """span{...} text for vectors {base name: (re, im)} of the base basis."""
        inv = {p: i for i, p in enumerate(self.perm)}
        entries = []
        for old in vectors:
            text = ""
            for i, (re_, im) in sorted((inv[self.base_names.index(n)], z) for n, z in old.items()):
                coeff = format_gauss((re_ * self.signs[i], im * self.signs[i]))
                sign = "-" if coeff.startswith("-") else "+"
                coeff = coeff.lstrip("-")
                text += f"{sign}{coeff}*{self.names[i]}" if coeff != "1" else f"{sign}{self.names[i]}"
            entries.append(text.lstrip("+"))
        return "span{" + ", ".join(entries) + "}"


def jacobi_witness(dim: int, table: dict):
    """First basis triple violating Jacobi, or None (exact, library-free)."""

    def bracket(u: dict, v: dict) -> dict:
        out = {}
        for a, x in u.items():
            for b, y in v.items():
                if a == b:
                    continue
                coeffs = table.get((a, b)) if a < b else table.get((b, a))
                sign = 1 if a < b else -1
                for l, c in (coeffs or {}).items():
                    out[l] = out.get(l, 0) + sign * x * y * c
        return {l: c for l, c in out.items() if c != 0}

    for i in range(dim):
        for j in range(i + 1, dim):
            for k in range(j + 1, dim):
                total = {}
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    for l, x in bracket({a: 1}, bracket({b: 1}, {c: 1})).items():
                        total[l] = total.get(l, 0) + x
                if any(x != 0 for x in total.values()):
                    return (i, j, k)
    return None


# ---------------------------------------------------------------------------
# generated inputs
# ---------------------------------------------------------------------------

_ONE, _MINUS_I = (Fraction(1), Fraction(0)), (Fraction(0), Fraction(-1))
# the chamber of the builtin basis: root vectors X_k - iY_k
_ROOT_VECTORS = [{f"X{k}": _ONE, f"Y{k}": _MINUS_I} for k in (1, 2, 3)]


@dataclass
class Instance:
    """The files and argv built from one seeded presentation."""

    algebra: Path
    torus_span: str
    positive: str
    structures: dict  # class name -> subalgebra JSON file
    levi_span: str
    rhs: Path
    mu: Fraction


def closed_chambers(rd):
    """Every positive system of the root datum, as library objects, in a
    deterministic order (the Weyl chambers)."""
    from liecoh.roots import PositiveSystemError, positive_system

    seen, pairs = set(), []
    for alpha in rd.roots:
        neg = tuple(-x for x in alpha)
        if neg not in seen:
            seen.add(alpha)
            pairs.append((alpha, neg))
    chambers = []
    for choice in product((0, 1), repeat=len(pairs)):
        override = [pair[c] for pair, c in zip(pairs, choice)]
        try:
            chambers.append(positive_system(rd, override=override))
        except PositiveSystemError:
            continue
    return sorted(chambers, key=lambda ps: str(ps.to_json_dict()))


def make_instance(base, seed: int, k: int, root: Path) -> Instance:
    """Draw presentation k of `seed`, write its files under root/p<k>, and
    build the seeded standard structures with the library (set-up only)."""
    from liecoh import LieAlgebra, build_standard, parse_span, root_decomposition
    from liecoh.scalars import format_scalar

    rng = random.Random(f"liecoh-bench:{seed}:{k}")
    pres = Presentation.draw(*base, rng)
    witness = jacobi_witness(len(pres.names), pres.table)
    if witness is not None:
        raise RuntimeError(f"generated presentation fails Jacobi on {witness}")
    d = root / f"p{k}"
    d.mkdir(parents=True, exist_ok=True)
    algebra = d / "algebra.json"
    algebra.write_text(json.dumps(pres.to_json_dict(), indent=1))

    g = LieAlgebra.from_json_dict(pres.to_json_dict())
    torus_span = pres.span([{"T1": _ONE}, {"T2": _ONE}])
    rd = root_decomposition(g, parse_span(torus_span, g))
    chamber = rng.choice(closed_chambers(rd))
    structures = {}
    for cls, (s, t) in STANDARD.items():
        st = build_standard(rd, s, t, chamber)
        if not st.prediction_matches:
            raise RuntimeError(f"standard structure {cls} does not match its prediction")
        path = d / f"{cls}.json"
        path.write_text(json.dumps(st.subalgebra.to_json_dict()))
        structures[cls] = path
    positive = ";".join(",".join(format_scalar(x) for x in a) for a in chamber.positive_roots)

    levi = _ROOT_VECTORS + [{n: (Fraction(c), Fraction(0)) for n, c in LEVI_TORUS.items()}]
    mu = Fraction(rng.choice((1, -1)) * rng.randint(1, 5), rng.randint(2, 7))
    rhs = d / "rhs.json"
    rhs.write_text(json.dumps(fourier_data(rng, mu)))
    return Instance(algebra, torus_span, positive, structures, pres.span(levi), rhs, mu)


def fourier_data(rng: random.Random, mu: Fraction, cutoff: int = 12, modes: int = 60) -> dict:
    """Random Fourier data with some modes on the singular lattice."""
    coeffs = {}
    while len(coeffs) < modes:
        key = (rng.randint(-cutoff, cutoff), rng.randint(-cutoff, cutoff))
        coeffs[key] = (Fraction(rng.randint(-9, 9), rng.randint(1, 6)), Fraction(rng.randint(-9, 9), rng.randint(1, 6)))
    for k in (1, -1):
        key = (k * mu.numerator, k * mu.denominator)
        if max(abs(key[0]), abs(key[1])) <= cutoff:
            coeffs[key] = (Fraction(1), Fraction(1))
    return {
        "cutoff": cutoff,
        "coefficients": [
            {"xi": xi, "eta": eta, "value": format_gauss(v)}
            for (xi, eta), v in sorted(coeffs.items())
            if v != (0, 0)
        ],
    }


# ---------------------------------------------------------------------------
# workloads: queries per round and their checks
# ---------------------------------------------------------------------------

# Each workload stresses a different layer; see BENCHMARK.json for the
# one-line reasons.  A run cycles through the workload's queries on this
# many seeded presentations, so its figures average over presentations.
PRESENTATIONS = 2


@dataclass
class Query:
    argv: list
    check: str  # name of the check below
    arg: str | None = None
    inst: Instance | None = None  # for checks that read the generated input


def round_queries(workload: str, instances) -> list:
    qs = []
    for inst in instances:
        a = str(inst.algebra)
        if workload == "ce-su3":
            qs.append(Query(["cohomology", "--algebra", a, "--json"], "ce"))
        elif workload == "bigraded-su3":
            for cls in ("elliptic", "complex", "cr"):
                argv = ["cohomology", "--algebra", a, "--subalgebra", str(inst.structures[cls]), "--json"]
                if cls == "cr":
                    argv.insert(-1, "--representatives")
                qs.append(Query(argv, "bigraded", cls))
        elif workload == "assembly-su3":
            argv = ["decompose", "--algebra", a, "--subalgebra", str(inst.structures["elliptic"]), "--json"]
            qs.append(Query(argv, "decompose"))
        elif workload == "structure-survey":
            qs.append(Query(["classify", "--algebra", a, "--subalgebra", str(inst.structures["cr"]), "--json"], "classify", "cr"))
            qs.append(Query(["classify", "--algebra", a, "--subalgebra", inst.levi_span, "--json"], "classify", "levi"))
            qs.append(Query(["roots", "--algebra", a, "--torus", inst.torus_span, f"--positive={inst.positive}",
                             "--standard", "2", "0", "--json"], "roots", inst.positive))
            qs.append(Query(["torus-solve", f"--mu={inst.mu}", "--rhs", str(inst.rhs), "--json"], "torus_mu", inst=inst))
            qs.append(Query(["torus-solve", "--cf", ",".join(map(str, CF_QUOTIENTS)), "--depth", str(CF_DEPTH), "--json"],
                            "torus_cf"))
        else:
            raise ValueError(f"unknown workload {workload!r}")
    return qs


def check(query: Query, stdout: str) -> list:
    """Problems with one query's output; empty when it is right."""
    try:
        out = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"output is not JSON: {exc}"]
    try:
        return _CHECKS[query.check](out, query)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return [f"output lacks an expected field: {exc!r}"]


def _check_ce(out, q):
    dims = out["table"]["dims"]
    got = [dims.get(str(k), 0) for k in range(len(SU3_BETTI))]
    return [] if got == SU3_BETTI and len(dims) == len(SU3_BETTI) else [f"H^*(su3) dims {dims}"]


def table_rows(dims: dict):
    top_p = max(int(k.split(",")[0]) for k in dims)
    top_q = max(int(k.split(",")[1]) for k in dims)
    return [[dims.get(f"{p},{q}", 0) for q in range(top_q + 1)] for p in range(top_p + 1)]


def euler_problems(rows):
    m, n = len(rows) - 1, len(rows[0]) - 1
    bad = []
    for p, row in enumerate(rows):
        lhs = sum((-1) ** q * d for q, d in enumerate(row))
        rhs = sum((-1) ** q * comb(m, p) * comb(n, q) for q in range(n + 1))
        if lhs != rhs:
            bad.append(f"Euler identity fails in row p={p}: {lhs} != {rhs}")
    return bad


def _check_bigraded(out, q):
    dims = out["table"]["dims"]
    rows = table_rows(dims)
    problems = euler_problems(rows)
    if rows != BIGRADED_REFERENCE[q.arg]:
        problems.append(f"{q.arg} table {rows} differs from the reference")
    if "--representatives" in q.argv:
        reps = out["table"]["representatives"]
        for key, d in dims.items():
            if len(reps.get(key, [])) != d:
                problems.append(f"{len(reps.get(key, []))} representatives for H^{{{key}}} of dim {d}")
    return problems


def _check_decompose(out, q):
    rows = table_rows(out["assembly"]["dims"])
    return [] if rows == BIGRADED_REFERENCE["elliptic"] else [f"assembled table {rows} differs from the bigraded reference"]


def _check_classify(out, q):
    problems = []
    c = out["classification"]
    if c["flags"] != FLAGS[q.arg] or c["dims"] != CLASSIFY_DIMS[q.arg]:
        problems.append(f"{q.arg} classified as {c}")
    want_char = 2 if q.arg == "cr" else 1
    if len(out["characteristic_space"]) != want_char or out["bct"]["characteristic_dim"] != want_char:
        problems.append(f"characteristic space of dim {len(out['characteristic_space'])}")
    if q.arg == "levi":
        inertias = sorted(s["inertia"] for s in out["bct"]["samples"])
        if inertias != LEVI_INERTIAS or out["bct"]["verdict"] != LEVI_VERDICT:
            problems.append(f"Levi test gave {inertias}, {out['bct']['verdict']}")
    return problems


def _check_roots(out, q):
    problems = []
    rd, st = out["root_datum"], out["standard_structure"]
    if len(rd["roots"]) != 6 or not rd["torus_is_maximal"] or len(rd["zero_space"]["vectors"]) != 2:
        problems.append("su3 root datum has the wrong shape")
    want = sorted(tuple(a.split(",")) for a in q.arg.split(";"))
    if sorted(tuple(a) for a in out["positive_system"]["positive_roots"]) != want:
        problems.append("positive system differs from the override")
    if st["prediction_matches"] is not True or st["classification"]["flags"] != FLAGS["elliptic"]:
        problems.append("standard structure (2, 0) does not match its prediction")
    return problems


def _check_torus_mu(out, q):
    problems = []
    mu = q.inst.mu
    data = json.loads(q.inst.rhs.read_text())
    cutoff = data["cutoff"]
    solution = {(c["xi"], c["eta"]): parse_gauss(c["value"]) for c in out["solve"]["solution"]["coefficients"]}
    expected, obstructions = {}, []
    for c in data["coefficients"]:
        xi, eta = c["xi"], c["eta"]
        divisor = Fraction(xi) - mu * eta
        if divisor == 0:
            obstructions.append([xi, eta])
        else:
            expected[(xi, eta)] = gauss_div(parse_gauss(c["value"]), (Fraction(0), divisor))
    if solution != expected:
        problems.append("solution differs from the modewise division")
    if sorted(out["solve"]["obstructions"]) != sorted(obstructions):
        problems.append(f"obstructions {out['solve']['obstructions']} != {obstructions}")
    lattice = sorted(
        [xi, eta]
        for xi in range(-cutoff, cutoff + 1)
        for eta in range(-cutoff, cutoff + 1)
        if Fraction(xi) == mu * eta
    )
    if sorted(out["singular_lattice"]) != lattice:
        problems.append("singular lattice is wrong")
    return problems


def _check_torus_cf(out, q):
    rep = out["divisor_report"]
    p0, q0, p1, q1 = 1, 0, CF_QUOTIENTS[0], 1
    conv = [[p1, q1]]
    for a in CF_QUOTIENTS[1:]:
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
        conv.append([p1, q1])
    problems = []
    if rep["convergents"] != conv:
        problems.append("convergents differ from the continued-fraction recursion")
    if rep["verdict"] != CF_VERDICT:
        problems.append(f"verdict {rep['verdict']!r} differs from the reference")
    return problems


_CHECKS = {
    "ce": _check_ce,
    "bigraded": _check_bigraded,
    "decompose": _check_decompose,
    "classify": _check_classify,
    "roots": _check_roots,
    "torus_mu": _check_torus_mu,
    "torus_cf": _check_torus_cf,
}
