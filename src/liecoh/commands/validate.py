"""``liecoh validate ALGEBRA``: the Jacobi identity on every basis triple."""

from __future__ import annotations

import sys

from . import EX_OK, EX_VALIDATION, emit, load_algebra

HELP = "check the Jacobi identity of an algebra"


def add_arguments(p):
    p.add_argument("algebra", help="builtin:NAME or a JSON file")
    p.add_argument("--json", action="store_true")


def run(args) -> int:
    g = load_algebra(args.algebra)
    witness = g.validate()
    report = {
        "command": "validate",
        "algebra": g.name,
        "ok": witness is None,
        "witness": None if witness is None else [g.basis_names[i] for i in witness],
    }
    if witness is None:
        emit(report, [f"ok: {g.name} satisfies the Jacobi identity on all basis triples"], args.json)
        return EX_OK
    names = ", ".join(g.basis_names[i] for i in witness)
    emit(report, [f"Jacobi identity fails on the triple ({names})"], args.json)
    if not args.json:
        sys.stderr.write(f"liecoh: error [E_VALIDATION] Jacobi witness ({names})\n")
    return EX_VALIDATION
