"""``liecoh classify``: the class of a subalgebra and its Levi-form test."""

from __future__ import annotations

from . import EX_OK, emit, load_algebra, load_subalgebra, require_jacobi

HELP = "classify a subalgebra and run the Levi-form test"


def add_arguments(p):
    p.add_argument("--algebra", help="builtin:NAME or a JSON file")
    p.add_argument("--subalgebra", required=True, help="JSON file or span{...}")
    p.add_argument("--json", action="store_true")


def run(args) -> int:
    from ..algebra import ClosureError
    from ..classify import ClassificationReport, bct_check
    from ..scalars import format_scalar

    g = load_algebra(args.algebra) if args.algebra else None
    g, h = load_subalgebra(args.subalgebra, g)
    require_jacobi(g)
    witness = h.is_subalgebra()
    if witness is not None:
        raise ClosureError(witness)
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
        out["levi_matrix"] = [[format_scalar(x) for x in row] for row in bct.levi_forms[0].row_list()]
        lines.append("Levi matrix at the basis covector: " + str(out["levi_matrix"]))
    lines.append(f"hypocomplexity test: {bct.verdict}")
    for s in bct.samples:
        lines.append(f"  sample {s.coeffs}: inertia (pos, neg, zero) = {s.inertia.as_tuple()}")
    lines.append("note: compactness of the group is a user assertion")
    emit(out, lines, args.json)
    return EX_OK
