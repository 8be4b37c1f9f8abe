"""The commands of the ``liecoh`` executable, one module per command, and
what they share: exit codes, failures, input loading and output.

A command module ``liecoh.commands.<name>`` (``torus_solve`` for
``torus-solve``) has ``HELP``, its line in the full help,
``add_arguments(parser)`` and ``run(args)``, which returns the exit code.
`liecoh.cli` imports only the module of the command it runs.  A handler
imports the library inside ``run``, when it is called, so that a command
loads only the library modules it runs and a wrapper installed on a
library module sees its calls.
"""

from __future__ import annotations

import json
import sys

# annotations are postponed, so these names are for type checkers only;
# a local flag in place of typing.TYPE_CHECKING keeps typing unimported
TYPE_CHECKING = False
if TYPE_CHECKING:
    from ..algebra import LieAlgebra

EX_OK = 0
EX_VALIDATION = 2
EX_USAGE = 64
EX_NOINPUT = 66
EX_INTERNAL = 70


class Failure(Exception):
    def __init__(self, code: int, kind: str, message: str):
        super().__init__(message)
        self.code = code
        self.kind = kind


def fail_validation(message: str):
    raise Failure(EX_VALIDATION, "E_VALIDATION", message)


def read_json_file(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise Failure(EX_NOINPUT, "E_NOINPUT", f"input file not found: {path}")
    except json.JSONDecodeError as exc:
        fail_validation(f"malformed JSON in {path}: {exc}")


def read_matrix_rows(rows) -> list:
    """The scalar entries of a JSON matrix, row by row; a row that is not a
    JSON list raises TypeError, so a string is not read as its characters."""
    from ..scalars import parse_scalar

    if not all(isinstance(row, list) for row in rows):
        raise TypeError("each matrix row must be a JSON list")
    return [[parse_scalar(x) for x in row] for row in rows]


def load_algebra(spec: str) -> LieAlgebra:
    from ..algebra import LieAlgebra, builtin_algebra

    if spec.startswith("builtin:"):
        return builtin_algebra(spec[len("builtin:"):])
    return LieAlgebra.from_json_dict(read_json_file(spec))


def load_subalgebra(spec: str, g: LieAlgebra | None):
    """Returns (algebra, subalgebra); the algebra may come inline from the
    file when none was passed."""
    from ..algebra import LieAlgebra
    from ..subalgebra import Subalgebra, parse_span

    if spec.strip().startswith("span{"):
        if g is None:
            fail_validation("span{...} shorthand needs --algebra")
        return g, parse_span(spec, g)
    data = read_json_file(spec)
    if not isinstance(data, dict):
        fail_validation(
            f"malformed subalgebra JSON: expected an object, got {type(data).__name__}"
        )
    declared = data.get("algebra")
    if g is None:
        if isinstance(declared, dict):
            g = LieAlgebra.from_json_dict(declared)
        elif isinstance(declared, str):
            g = load_algebra(declared if ":" in declared else f"builtin:{declared}")
        else:
            fail_validation(f"{spec}: no algebra given and none declared inline")
    elif isinstance(declared, dict) and LieAlgebra.from_json_dict(declared) != g:
        name = declared["name"]
        fail_validation(
            f"{spec} declares algebra {name!r} but --algebra is {g.name!r}"
            + (", with another basis or brackets" if name == g.name else "")
        )
    elif isinstance(declared, str) and declared not in (g.name, f"builtin:{g.name}"):
        fail_validation(
            f"{spec} declares algebra {declared!r} but --algebra is {g.name!r}"
        )
    return g, Subalgebra.from_json_dict(data, g)


def require_jacobi(g: LieAlgebra):
    """Exit 2 with the witness triple unless g satisfies Jacobi."""
    witness = g.validate()
    if witness is not None:
        names = ", ".join(g.basis_names[i] for i in witness)
        fail_validation(f"Jacobi identity fails on the triple ({names})")


def emit(report: dict, lines, as_json: bool):
    if as_json:
        sys.stdout.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
    else:
        for line in lines:
            sys.stdout.write(line + "\n")


def pq_table_lines(dims: dict, title: str):
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


def degree_line(dims: dict, title: str):
    top = max(dims) if dims else 0
    return f"{title}: (" + ", ".join(str(dims.get(k, 0)) for k in range(top + 1)) + ")"
