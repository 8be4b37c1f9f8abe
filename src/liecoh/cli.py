"""Command line interface.

One executable, six commands: validate / classify / roots / cohomology /
decompose / torus-solve.  Inputs are builtin names (``builtin:su2``,
``builtin:su3``, ``builtin:torus3``), JSON files, or the inline
``span{...}`` shorthand for subalgebras.  Output is a human table by
default and stable-key JSON with ``--json``; identical invocations
produce byte-identical JSON.

Exit codes: 0 success, 2 mathematical validation failure (the witness is
printed), 64 usage error, 66 missing input file, 70 internal invariant
broken (for example d o d != 0 or an inexact division in exact
elimination; a bug, not bad input).  Exit 2 covers the command's own
input checks and every ``liecoh.scalars.InputError`` the library raises
(bad scalars, algebras, subalgebras, non-split or non-Hermitian input,
torus data).

Each command imports only the library modules it runs.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

from .scalars import InputError

if TYPE_CHECKING:
    from .algebra import LieAlgebra
    from .cohomology import GModule

EX_OK = 0
EX_VALIDATION = 2
EX_USAGE = 64
EX_NOINPUT = 66
EX_INTERNAL = 70


class _CliParser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error [E_USAGE] {message}\n")
        raise SystemExit(EX_USAGE)


class _Failure(Exception):
    def __init__(self, code: int, kind: str, message: str):
        super().__init__(message)
        self.code = code
        self.kind = kind


def _fail_validation(message: str):
    raise _Failure(EX_VALIDATION, "E_VALIDATION", message)


def _read_json_file(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise _Failure(EX_NOINPUT, "E_NOINPUT", f"input file not found: {path}")
    except json.JSONDecodeError as exc:
        raise _Failure(EX_VALIDATION, "E_VALIDATION", f"malformed JSON in {path}: {exc}")


def load_algebra(spec: str) -> LieAlgebra:
    from .algebra import LieAlgebra, builtin_algebra

    if spec.startswith("builtin:"):
        return builtin_algebra(spec[len("builtin:"):])
    return LieAlgebra.from_json_dict(_read_json_file(spec))


def load_subalgebra(spec: str, g: LieAlgebra | None):
    """Returns (algebra, subalgebra); the algebra may come inline from the
    file when none was passed."""
    from .algebra import LieAlgebra, Subalgebra, parse_span

    if spec.strip().startswith("span{"):
        if g is None:
            _fail_validation("span{...} shorthand needs --algebra")
        return g, parse_span(spec, g)
    data = _read_json_file(spec)
    if not isinstance(data, dict):
        _fail_validation(
            f"malformed subalgebra JSON: expected an object, got {type(data).__name__}"
        )
    declared = data.get("algebra")
    if g is None:
        if isinstance(declared, dict):
            g = LieAlgebra.from_json_dict(declared)
        elif isinstance(declared, str):
            g = load_algebra(declared if ":" in declared else f"builtin:{declared}")
        else:
            _fail_validation(f"{spec}: no algebra given and none declared inline")
    elif isinstance(declared, str) and declared not in (g.name, f"builtin:{g.name}"):
        _fail_validation(
            f"{spec} declares algebra {declared!r} but --algebra is {g.name!r}"
        )
    return g, Subalgebra.from_json_dict(data, g)


def _emit(report: dict, lines, as_json: bool):
    if as_json:
        sys.stdout.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
    else:
        for line in lines:
            sys.stdout.write(line + "\n")


def _pq_table_lines(dims: dict, title: str):
    if not dims:
        return [f"{title}: (empty)"]
    ps = sorted({p for (p, _) in dims})
    qs = sorted({q for (_, q) in dims})
    width = max(3, max(len(str(v)) for v in dims.values()) + 2)
    head = "p\\q" + "".join(str(q).rjust(width) for q in qs)
    lines = [title, head]
    for p in ps:
        lines.append(str(p).ljust(3) + "".join(str(dims.get((p, q), 0)).rjust(width) for q in qs))
    return lines


def _degree_line(dims: dict, title: str):
    top = max(dims) if dims else 0
    return f"{title}: (" + ", ".join(str(dims.get(k, 0)) for k in range(top + 1)) + ")"


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _require_jacobi(g: LieAlgebra):
    """Exit 2 with the witness triple unless g satisfies Jacobi."""
    witness = g.validate()
    if witness is not None:
        names = ", ".join(g.basis_names[i] for i in witness)
        _fail_validation(f"Jacobi identity fails on the triple ({names})")


def _cmd_validate(args) -> int:
    g = load_algebra(args.algebra)
    witness = g.validate()
    report = {
        "command": "validate",
        "algebra": g.name,
        "ok": witness is None,
        "witness": None if witness is None else [g.basis_names[i] for i in witness],
    }
    if witness is None:
        _emit(report, [f"ok: {g.name} satisfies the Jacobi identity on all basis triples"], args.json)
        return EX_OK
    names = ", ".join(g.basis_names[i] for i in witness)
    _emit(report, [f"Jacobi identity fails on the triple ({names})"], args.json)
    if not args.json:
        sys.stderr.write(f"liecoh: error [E_VALIDATION] Jacobi witness ({names})\n")
    return EX_VALIDATION


def _cmd_classify(args) -> int:
    from .classify import ClassificationReport, bct_check
    from .scalars import format_scalar

    g = load_algebra(args.algebra) if args.algebra else None
    g, h = load_subalgebra(args.subalgebra, g)
    _require_jacobi(g)
    witness = h.is_subalgebra()
    if witness is not None:
        _fail_validation(f"input is not a subalgebra: witness rows {witness}")
    # rank R = dim g - dim ker R: no second elimination of R
    bct = bct_check(g, h)
    report = ClassificationReport.from_rank(g.dim, h.dim, g.dim - bct.characteristic_dim)
    char = bct.characteristic_space
    out = {
        "command": "classify",
        "algebra": g.name,
        "classification": report.to_json_dict(),
        "characteristic_space": [[format_scalar(x) for x in v] for v in char],
        "bct": bct.to_json_dict(),
        "compactness_assumed": True,
    }
    lines = []
    flags = report.to_json_dict()["flags"]
    active = [k for k, v in flags.items() if v]
    lines.append(f"structure: {', '.join(active) if active else 'none of the four classes'}")
    d = report.to_json_dict()["dims"]
    lines.append(
        f"dims: h={d['h']}  h+conj={d['h_plus_conj']}  h/\\conj={d['h_cap_conj']}  ambient={d['ambient']}"
    )
    lines.append(f"characteristic space dimension: {len(char)}")
    if len(char) == 1:
        levi = bct.levi_forms[0].matrix
        out["levi_matrix"] = [[format_scalar(x) for x in row] for row in levi.row_list()]
        lines.append("Levi matrix at the basis covector: " + str(out["levi_matrix"]))
    lines.append(f"hypocomplexity test: {bct.verdict}")
    for s in bct.samples:
        lines.append(f"  sample {s.coeffs}: inertia (pos, neg, zero) = {s.inertia.as_tuple()}")
    lines.append("note: compactness of the group is a user assertion")
    _emit(out, lines, args.json)
    return EX_OK


def _parse_root_list(text: str):
    from .scalars import parse_scalar

    roots = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        roots.append(tuple(parse_scalar(x.strip()) for x in part.split(",")))
    return roots


def _cmd_roots(args) -> int:
    from .roots import build_standard, positive_system, root_decomposition
    from .scalars import format_scalar

    g = load_algebra(args.algebra)
    g, t = load_subalgebra(args.torus, g)
    _require_jacobi(g)
    rd = root_decomposition(g, t)
    override = _parse_root_list(args.positive) if args.positive else None
    ps = positive_system(rd, override=override)
    out = {
        "command": "roots",
        "algebra": g.name,
        "root_datum": rd.to_json_dict(),
        "positive_system": ps.to_json_dict(),
    }
    lines = [
        f"roots ({len(rd.roots)}): "
        + "  ".join("(" + ",".join(format_scalar(x) for x in a) + ")" for a in rd.roots),
        f"zero space dim: {rd.zero_space.dim} (torus maximal: {rd.torus_is_maximal})",
        "positive system: "
        + "  ".join("(" + ",".join(format_scalar(x) for x in a) + ")" for a in ps.positive_roots),
    ]
    if args.standard:
        s, tcount = args.standard
        st = build_standard(rd, s, tcount, ps)
        out["standard_structure"] = {
            "s": s,
            "t": tcount,
            "subalgebra": st.subalgebra.to_json_dict(),
            "predicted": st.predicted,
            "classification": st.report.to_json_dict(),
            "prediction_matches": st.prediction_matches,
        }
        predicted = [k for k, v in st.predicted.items() if v]
        lines.append(
            f"standard structure (s={s}, t={tcount}): dim {st.subalgebra.dim}, "
            f"predicted {', '.join(predicted) if predicted else 'nothing'}, "
            f"verified match: {st.prediction_matches}"
        )
    _emit(out, lines, args.json)
    return EX_OK


def _load_module(spec: str, acting) -> GModule:
    from .algebra import LieAlgebra
    from .cohomology import GModule
    from .linalg import ExactMatrix
    from .scalars import json_int, parse_scalar

    if spec == "trivial":
        return GModule.trivial(acting)
    if spec == "adjoint":
        if not isinstance(acting, LieAlgebra):
            _fail_validation("adjoint coefficients need the full algebra as the acting algebra")
        return GModule.adjoint(acting)
    data = _read_json_file(spec)
    try:
        dim = json_int(data["dim"], "dim")
        actions = [
            ExactMatrix.from_rows([[parse_scalar(x) for x in row] for row in mat])
            if mat
            else ExactMatrix.zero(0, 0)
            for mat in data["actions"]
        ]
    except InputError:  # a malformed scalar keeps its own message
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise _Failure(EX_VALIDATION, "E_VALIDATION", f"malformed module JSON: {exc}")
    module = GModule(acting, dim, actions)
    witness = module.validate()
    if witness is not None:
        _fail_validation(f"module action is not a Lie algebra homomorphism: witness {witness}")
    return module


def _cmd_cohomology(args) -> int:
    from .cohomology import bigraded_cohomology, ce_cohomology, relative_ce_cohomology

    g = load_algebra(args.algebra) if args.algebra else None
    h = None
    if args.subalgebra:
        g, h = load_subalgebra(args.subalgebra, g)
    if g is None:
        _fail_validation("cohomology needs --algebra or a subalgebra file with an inline algebra")
    _require_jacobi(g)
    out = {"command": "cohomology", "algebra": g.name}
    lines = []
    if args.relative:
        acting = h if h is not None else g
        _, u = load_subalgebra(args.relative, g)
        module = _load_module(args.module, acting)
        table = relative_ce_cohomology(acting, u, module)
        out["kind"] = "relative"
        out["table"] = table.to_json_dict()
        lines.append(_degree_line(table.dims, "relative cohomology dims"))
    elif h is not None:
        if args.module != "trivial":
            _fail_validation("the bigraded table uses trivial coefficients; drop --module")
        table = bigraded_cohomology(g, h, representatives=args.representatives)
        out["kind"] = "bigraded"
        out["table"] = table.to_json_dict()
        lines.extend(_pq_table_lines(table.dims, "H^{p,q} dims (rows p, columns q)"))
        lines.append("note: " + table.meta["note"])
    else:
        module = _load_module(args.module, g)
        table = ce_cohomology(g, module, representatives=args.representatives)
        out["kind"] = "plain"
        out["table"] = table.to_json_dict()
        lines.append(_degree_line(table.dims, f"H^k({g.name}; {args.module}) dims"))
    if args.representatives and table.representatives is not None:
        reps = table.to_json_dict().get("representatives", {})
        for key in sorted(reps):
            for vec in reps[key]:
                pretty = " + ".join(f"({v})*{name}" for name, v in vec.items()) or "0"
                lines.append(f"  representative [{key}]: {pretty}")
    _emit(out, lines, args.json)
    return EX_OK


def _cmd_decompose(args) -> int:
    from .decompose import full_assembly
    from .linalg import ExactMatrix
    from .scalars import parse_scalar

    g = load_algebra(args.algebra) if args.algebra else None
    g, h = load_subalgebra(args.subalgebra, g)
    _require_jacobi(g)
    gram = None
    if args.inner_product:
        data = _read_json_file(args.inner_product)
        try:
            gram = ExactMatrix.from_rows(
                [[parse_scalar(x) for x in row] for row in data["matrix"]]
            )
        except InputError:
            raise
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise _Failure(EX_VALIDATION, "E_VALIDATION", f"malformed Gram JSON: {exc}")
    report = full_assembly(g, h, gram=gram)
    out = {"command": "decompose", "algebra": g.name, "assembly": report.to_json_dict()}
    variant = args.module_dual
    table = report.table_dual if variant in ("on", "both") else report.table_nondual
    lines = _pq_table_lines(table.dims, "assembled H^{p,q} dims (rows p, columns q)")
    lines.append(_degree_line(report.k_table.dims, "de Rham factor H^s(k)"))
    lines.append(
        "p-summed totals per q: "
        + ", ".join(f"q={q}: {v}" for q, v in sorted(report.p_totals.items()))
    )
    if variant == "both" and report.disagreements:
        for (p, q, a, b) in report.disagreements:
            lines.append(f"dual/non-dual coefficient disagreement at (p,q)=({p},{q}): {a} vs {b}")
    if report.riemann_comparison:
        lines.append(
            "H^q(K)+H^{q-1}(K) reading: p-summed matches: "
            f"{report.riemann_comparison['p_summed_matches']}, per-(p,q) matches: "
            f"{report.riemann_comparison['per_pq_matches']}"
        )
    for note in report.notes:
        lines.append("note: " + note)
    _emit(out, lines, args.json)
    return EX_OK


def _cmd_torus_solve(args) -> int:
    from .scalars import format_scalar
    from .torus import FourierData, MuSpec, liouville_report, singular_lattice, solve_dprime

    if args.mu is not None and args.cf is not None:
        raise _Failure(EX_USAGE, "E_USAGE", "give either --mu or --cf, not both")
    if args.mu is not None:
        try:
            mu = MuSpec.rational(Fraction(args.mu))
        except (ValueError, ZeroDivisionError) as exc:
            _fail_validation(f"bad --mu: {exc}")
    elif args.cf is not None:
        try:
            mu = MuSpec.from_cf([int(x) for x in args.cf.split(",")])
        except ValueError as exc:
            _fail_validation(f"bad --cf: {exc}")
    else:
        raise _Failure(EX_USAGE, "E_USAGE", "torus-solve needs --mu or --cf")
    out = {"command": "torus-solve", "mu": mu.describe()}
    lines = [f"mu = {mu.describe()}"]
    did_something = False
    if args.rhs:
        f = FourierData.from_json_dict(_read_json_file(args.rhs))
        result = solve_dprime(mu, f)
        out["solve"] = result.to_json_dict()
        lattice = singular_lattice(result.mu_used, args.bound if args.bound is not None else f.cutoff)
        out["singular_lattice"] = [list(m) for m in lattice]
        if result.substituted:
            lines.append(f"irrational input: solved at the deepest convergent {result.mu_used}")
        lines.append(
            "solution modes: "
            + (
                "  ".join(
                    f"({xi},{eta})->{format_scalar(v)}"
                    for (xi, eta), v in sorted(result.solution.coefficients.items())
                )
                or "(none)"
            )
        )
        lines.append(f"obstructions: {result.obstructions or '(none)'}")
        lines.append(f"singular lattice within bound: {out['singular_lattice']}")
        lines.append("residual L u - f vanishes exactly off the obstruction set")
        did_something = True
    if args.depth is not None or not did_something:
        depth = args.depth if args.depth is not None else 1
        report = liouville_report(mu, depth)
        out["divisor_report"] = report.to_json_dict()
        lines.append(f"small-divisor verdict: {report.verdict}")
        for e in report.entries:
            lines.append(
                f"  j={e.j}: |p-mu q| in [{e.window_min}, {e.window_max}] vs "
                f"(p^2+q^2)^-j = {e.bound}: {e.status}"
            )
        for note in report.notes:
            lines.append("note: " + note)
    _emit(out, lines, args.json)
    return EX_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _CliParser(prog="liecoh", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CliParser)

    p = sub.add_parser("validate", help="check the Jacobi identity of an algebra")
    p.add_argument("algebra", help="builtin:NAME or a JSON file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("classify", help="classify a subalgebra and run the Levi-form test")
    p.add_argument("--algebra", help="builtin:NAME or a JSON file")
    p.add_argument("--subalgebra", required=True, help="JSON file or span{...}")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("roots", help="root decomposition under a torus subalgebra")
    p.add_argument("--algebra", required=True)
    p.add_argument("--torus", required=True, help="JSON file or span{...}")
    p.add_argument("--positive", help="override positive roots: 'a,b;c,d;...' in scalar syntax")
    p.add_argument("--standard", nargs=2, type=int, metavar=("S", "T"),
                   help="build the standard structure with s real and t paired torus vectors")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_roots)

    p = sub.add_parser("cohomology", help="plain, relative or bigraded cohomology")
    p.add_argument("--algebra")
    p.add_argument("--subalgebra", help="bigraded table of this subalgebra (or acting algebra with --relative)")
    p.add_argument("--module", default="trivial", help="trivial | adjoint | module JSON file")
    p.add_argument("--relative", help="subalgebra JSON/span for the relative pair")
    p.add_argument("--representatives", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_cohomology)

    p = sub.add_parser("decompose", help="Kunneth/Bott assembly of H^{p,q}")
    p.add_argument("--algebra")
    p.add_argument("--subalgebra", required=True)
    p.add_argument("--inner-product", help="JSON file with an ad-invariant Gram matrix")
    p.add_argument("--module-dual", choices=("on", "off", "both"), default="both")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("torus-solve", help="solve L u = f on the 2-torus and run divisor diagnostics")
    p.add_argument("--mu", help="exact rational slope, e.g. 2/3")
    p.add_argument("--cf", help="continued-fraction quotients, e.g. 1,1,1,1")
    p.add_argument("--rhs", help="Fourier data JSON file")
    p.add_argument("--depth", type=int, help="diagnostic depth along the convergents")
    p.add_argument("--bound", type=int, help="bound for printing the singular lattice")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_torus_solve)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _Failure as exc:
        sys.stderr.write(f"liecoh: error [{exc.kind}] {exc}\n")
        return exc.code
    except InputError as exc:
        sys.stderr.write(f"liecoh: error [E_VALIDATION] {exc}\n")
        return EX_VALIDATION
    except AssertionError as exc:
        # the library raises AssertionError only for its own invariants
        sys.stderr.write(f"liecoh: error [E_INTERNAL] internal invariant broken: {exc}\n")
        return EX_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
