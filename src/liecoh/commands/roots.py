"""``liecoh roots``: the root decomposition under a torus subalgebra, and
optionally a standard structure."""

from __future__ import annotations

from . import EX_OK, emit, load_algebra, load_subalgebra, require_jacobi

HELP = "root decomposition under a torus subalgebra"


def add_arguments(p):
    p.add_argument("--algebra", required=True)
    p.add_argument("--torus", required=True, help="JSON file or span{...}")
    p.add_argument("--positive", help="override positive roots: 'a,b;c,d;...' in scalar syntax")
    p.add_argument("--standard", nargs=2, type=int, metavar=("S", "T"),
                   help="build the standard structure with s real and t paired torus vectors")
    p.add_argument("--json", action="store_true")


def _parse_root_list(text: str):
    from ..scalars import parse_scalar

    roots = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        roots.append(tuple(parse_scalar(x.strip()) for x in part.split(",")))
    return roots


def run(args) -> int:
    from ..roots import build_standard, format_root, positive_system, root_decomposition

    g = load_algebra(args.algebra)
    g, t = load_subalgebra(args.torus, g)
    require_jacobi(g)
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
        + "  ".join(map(format_root, rd.roots)),
        f"zero space dim: {rd.zero_space.dim} (torus maximal: {rd.torus_is_maximal})",
        "positive system: "
        + "  ".join(map(format_root, ps.positive_roots)),
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
    emit(out, lines, args.json)
    return EX_OK
