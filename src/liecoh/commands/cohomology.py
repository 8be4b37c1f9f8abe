"""``liecoh cohomology``: plain, module, relative or bigraded cohomology."""

from __future__ import annotations

from . import (
    EX_OK,
    degree_line,
    emit,
    fail_validation,
    load_algebra,
    load_subalgebra,
    pq_table_lines,
    read_json_file,
    read_matrix_rows,
    require_jacobi,
)

# annotations are postponed, so this name is for type checkers only
TYPE_CHECKING = False
if TYPE_CHECKING:
    from ..cohomology import GModule

HELP = "plain, relative or bigraded cohomology"


def add_arguments(p):
    p.add_argument("--algebra")
    p.add_argument("--subalgebra", help="bigraded table of this subalgebra (or acting algebra with --relative)")
    p.add_argument("--module", default="trivial", help="trivial | adjoint | module JSON file")
    p.add_argument("--relative", help="subalgebra JSON/span for the relative pair")
    p.add_argument("--representatives", action="store_true")
    p.add_argument("--json", action="store_true")


def _load_module(spec: str, acting) -> GModule:
    from ..algebra import LieAlgebra
    from ..cohomology import GModule
    from ..matrix import ExactMatrix
    from ..scalars import InputError, json_int

    if spec == "trivial":
        return GModule.trivial(acting)
    if spec == "adjoint":
        if not isinstance(acting, LieAlgebra):
            fail_validation("adjoint coefficients need the full algebra as the acting algebra")
        return GModule.adjoint(acting)
    data = read_json_file(spec)
    try:
        dim = json_int(data["dim"], "dim", minimum=0)
        actions = [
            ExactMatrix.from_rows(read_matrix_rows(mat))
            if mat
            else ExactMatrix.zero(0, 0)
            for mat in data["actions"]
        ]
    except InputError:  # a malformed scalar keeps its own message
        raise
    except (KeyError, TypeError, ValueError) as exc:
        fail_validation(f"malformed module JSON: {exc}")
    module = GModule(acting, dim, actions)
    witness = module.validate()
    if witness is not None:
        fail_validation(f"module action is not a Lie algebra homomorphism: witness {witness}")
    return module


def run(args) -> int:
    from ..cohomology import bigraded_cohomology, ce_cohomology, relative_ce_cohomology

    g = load_algebra(args.algebra) if args.algebra else None
    h = None
    if args.subalgebra:
        g, h = load_subalgebra(args.subalgebra, g)
    if g is None:
        fail_validation("cohomology needs --algebra or a subalgebra file with an inline algebra")
    require_jacobi(g)
    out = {"command": "cohomology", "algebra": g.name}
    lines = []
    if args.relative:
        if args.representatives:
            fail_validation("relative cohomology reports dims only; drop --representatives")
        acting = h if h is not None else g
        _, u = load_subalgebra(args.relative, g)
        module = _load_module(args.module, acting)
        table = relative_ce_cohomology(acting, u, module)
        out["kind"] = "relative"
        out["table"] = table.to_json_dict()
        lines.append(degree_line(table.dims, "relative cohomology dims"))
    elif h is not None:
        if args.module != "trivial":
            fail_validation("the bigraded table uses trivial coefficients; drop --module")
        table = bigraded_cohomology(g, h, representatives=args.representatives)
        out["kind"] = "bigraded"
        out["table"] = table.to_json_dict()
        lines.extend(pq_table_lines(table.dims, "H^{p,q} dims (rows p, columns q)"))
        lines.append("note: " + table.meta["note"])
    else:
        module = _load_module(args.module, g)
        table = ce_cohomology(g, module, representatives=args.representatives)
        out["kind"] = "plain"
        out["table"] = table.to_json_dict()
        lines.append(degree_line(table.dims, f"H^k({g.name}; {args.module}) dims"))
    if not args.json:
        reps = out["table"].get("representatives", {})
        for key in sorted(reps):
            for vec in reps[key]:
                pretty = " + ".join(f"({v})*{name}" for name, v in vec.items()) or "0"
                lines.append(f"  representative [{key}]: {pretty}")
    emit(out, lines, args.json)
    return EX_OK
