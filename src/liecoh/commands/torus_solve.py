"""``liecoh torus-solve``: L u = f on the 2-torus and small-divisor
diagnostics."""

from __future__ import annotations

from . import EX_OK, EX_USAGE, Failure, emit, fail_validation, read_json_file

HELP = "solve L u = f on the 2-torus and run divisor diagnostics"


def add_arguments(p):
    p.add_argument("--mu", help="exact rational slope, e.g. 2/3")
    p.add_argument("--cf", help="continued-fraction quotients, e.g. 1,1,1,1")
    p.add_argument("--rhs", help="Fourier data JSON file")
    p.add_argument("--depth", type=int, help="diagnostic depth along the convergents")
    p.add_argument("--bound", type=int, help="bound for printing the singular lattice")
    p.add_argument("--json", action="store_true")


def run(args) -> int:
    from fractions import Fraction

    from ..scalars import format_scalar
    from ..torus import FourierData, MuSpec, liouville_report, singular_lattice, solve_dprime

    if args.mu is not None and args.cf is not None:
        raise Failure(EX_USAGE, "E_USAGE", "give either --mu or --cf, not both")
    if args.bound is not None and not args.rhs:
        raise Failure(EX_USAGE, "E_USAGE", "--bound needs --rhs: only the solve prints a lattice")
    if args.mu is not None:
        try:
            mu = MuSpec.rational(Fraction(args.mu))
        except ValueError as exc:
            fail_validation(f"bad --mu: {exc}")
        except ZeroDivisionError:
            fail_validation(f"bad --mu: the denominator of {args.mu} is zero")
    elif args.cf is not None:
        try:
            mu = MuSpec.from_cf([int(x) for x in args.cf.split(",")])
        except ValueError as exc:
            fail_validation(f"bad --cf: {exc}")
    else:
        raise Failure(EX_USAGE, "E_USAGE", "torus-solve needs --mu or --cf")
    out = {"command": "torus-solve", "mu": mu.describe()}
    lines = [f"mu = {mu.describe()}"]
    did_something = False
    if args.rhs:
        f = FourierData.from_json_dict(read_json_file(args.rhs))
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
    emit(out, lines, args.json)
    return EX_OK
