"""``liecoh decompose``: the Kunneth/Bott assembly of H^{p,q}."""

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

HELP = "Kunneth/Bott assembly of H^{p,q}"


def add_arguments(p):
    p.add_argument("--algebra")
    p.add_argument("--subalgebra", required=True)
    p.add_argument("--inner-product", help="JSON file with an ad-invariant Gram matrix")
    p.add_argument("--json", action="store_true")


def run(args) -> int:
    from ..decompose import full_assembly
    from ..matrix import ExactMatrix
    from ..scalars import InputError

    g = load_algebra(args.algebra) if args.algebra else None
    g, h = load_subalgebra(args.subalgebra, g)
    require_jacobi(g)
    gram = None
    if args.inner_product:
        data = read_json_file(args.inner_product)
        try:
            gram = ExactMatrix.from_rows(read_matrix_rows(data["matrix"]))
        except InputError:
            raise
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            fail_validation(f"malformed Gram JSON: {exc}")
    report = full_assembly(g, h, gram=gram)
    out = {"command": "decompose", "algebra": g.name, "assembly": report.to_json_dict()}
    lines = pq_table_lines(report.table_dual.dims, "assembled H^{p,q} dims (rows p, columns q)")
    lines.append(degree_line(report.k_table.dims, "de Rham factor H^s(k)"))
    lines.append(
        "p-summed totals per q: "
        + ", ".join(f"q={q}: {v}" for q, v in sorted(report.p_totals.items()))
    )
    if report.riemann_comparison:
        lines.append(
            "H^q(K)+H^{q-1}(K) reading: p-summed matches: "
            f"{report.riemann_comparison['p_summed_matches']}, per-(p,q) matches: "
            f"{report.riemann_comparison['per_pq_matches']}"
        )
    for note in report.notes:
        lines.append("note: " + note)
    emit(out, lines, args.json)
    return EX_OK
