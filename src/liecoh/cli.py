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
import importlib
import sys

# all five exit codes are read from here by callers of main
from .commands import EX_INTERNAL, EX_NOINPUT, EX_OK, EX_USAGE, EX_VALIDATION, Failure
from .scalars import InputError

# in the order of the full help; the module of each is
# liecoh.commands.<name>, with "_" for "-"
COMMANDS = ("validate", "classify", "roots", "cohomology", "decompose", "torus-solve")


class _CliParser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error [E_USAGE] {message}\n")
        raise SystemExit(EX_USAGE)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of all six commands, or of `command` alone when it names
    one, which imports only that command's module.

    The usage line of the one-command parser still lists every command,
    so its help, usage and error output match the full parser's byte for
    byte.  Only there is the list given as a metavar: the full parser
    names the argument "command" in its invalid-choice error, and a
    metavar would rename it.
    """
    parser = _CliParser(prog="liecoh", description=__doc__)
    names = (command,) if command in COMMANDS else COMMANDS
    sub = parser.add_subparsers(
        dest="command", required=True, parser_class=_CliParser,
        metavar="{" + ",".join(COMMANDS) + "}" if len(names) == 1 else None,
    )
    for name in names:
        module = importlib.import_module(f"{__package__}.commands.{name.replace('-', '_')}")
        p = sub.add_parser(name, help=module.HELP)
        module.add_arguments(p)
        p.set_defaults(func=module.run)
    return parser


def main(argv=None) -> int:
    """Run the command that argv (default sys.argv[1:]) starts with, on a
    parser of that command alone; a first argument that names no command
    (-h, --help or a typo) gets the full parser, and so does no argument."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except Failure as exc:
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
