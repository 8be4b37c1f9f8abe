"""Command line interface.

One executable, six commands: validate / classify / roots / cohomology /
decompose / torus-solve.  Inputs are builtin names (``builtin:su2``,
``builtin:su3``, ``builtin:torus3``), JSON files, or the inline
``span{...}`` shorthand for subalgebras.  Output is a human table by
default and stable-key JSON with ``--json``; identical invocations
produce byte-identical JSON.

Options may be shortened to any unique prefix (``--alg``).  A value that
starts with ``-`` is given as ``--option=value``, except a negative
number; a repeated option keeps its last value.  ``-h`` or ``--help``
prints the usage and the options of the command it follows.

Exit codes: 0 success, 2 mathematical validation failure (the witness is
printed), 64 usage error, 66 missing input file, 70 internal invariant
broken (for example d o d != 0 or an inexact division in exact
elimination; a bug, not bad input), 74 standard output closed before
everything was written (a reader such as ``head`` that stops early).
Exit 2 covers the command's own input checks and every
``liecoh.scalars.InputError`` the library raises (bad scalars, algebras,
subalgebras, non-split or non-Hermitian input, torus data).

Each command declares its options in ``add_arguments(parser)``, with
the keywords of the standard library's ``add_argument``, and this module
reads the command line against them itself: a command imports only the
library modules it runs, and no argument-parsing library.
"""

from __future__ import annotations

import importlib
import re
import sys
from types import SimpleNamespace

# all six exit codes are read from here by callers of main
from .commands import EX_INTERNAL, EX_IOERR, EX_NOINPUT, EX_OK, EX_USAGE, EX_VALIDATION, Failure, silence_stdout
from .scalars import InputError

# in the order of the full help; the module of each is
# liecoh.commands.<name>, with "_" for "-"
COMMANDS = ("validate", "classify", "roots", "cohomology", "decompose", "torus-solve")

# a word that reads as a negative number is a value, not an option
NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")
# usage lines wrap at this width, the standard library parser's for an
# 80-column terminal and for output that is not a terminal
WIDTH = 78


def _command_module(name: str):
    return importlib.import_module(f"{__package__}.commands.{name.replace('-', '_')}")


class _Argument:
    """An option or a positional as ``add_argument`` declares it; it takes
    `nargs` words (0 for a flag), each converted by `type`."""

    def __init__(self, *names, required=False, action=None, nargs=None, type=str,
                 metavar=None, default=None, help=""):
        assert action in (None, "store_true"), action
        self.strings = names if names[0].startswith("-") else ()
        self.dest = names[-1].lstrip("-").replace("-", "_")
        self.name = "/".join(self.strings) or self.dest
        self.nargs = 0 if action else nargs or 1
        self.type = type
        self.required = required or not self.strings
        self.default = False if action else default
        if not isinstance(metavar, tuple):
            metavar = (metavar or (self.dest.upper() if self.strings else self.dest),) * self.nargs
        self.metavar = metavar
        self.help = help


class _Parser:
    """The arguments of one command, or of the top level, which has -h
    alone; `parse` binds and refuses the words of a command line as the
    standard library's parser did."""

    def __init__(self, prog: str, tail=(), about=lambda: ""):
        self.prog = prog
        self.tail = tail  # words that end the usage line
        self.about = about  # text between the usage line and the arguments
        self.arguments = [_Argument("-h", "--help", action="store_true",
                                    help="show this help message and exit")]
        self.options = {"-h": self.arguments[0], "--help": self.arguments[0]}

    def add_argument(self, *names, **declared):
        argument = _Argument(*names, **declared)
        self.arguments.append(argument)
        self.options.update(dict.fromkeys(argument.strings, argument))

    def usage(self) -> str:
        """The standard library parser's usage line: the options, then the
        positionals, which start a line of their own when the line wraps."""
        options, positionals = [], list(self.tail)
        for argument in self.arguments:
            words = [*argument.strings[:1], *argument.metavar]
            if not argument.strings:
                positionals += words
            elif argument.required:
                options += words
            else:
                options.append("[" + " ".join(words) + "]")
        line = " ".join([self.prog, *options, *positionals])
        if len("usage: ") + len(line) <= WIDTH:
            return f"usage: {line}\n"
        indent = len(f"usage: {self.prog} ")
        lines = _fill([self.prog, *options], len("usage: "), indent) + _fill(positionals, indent, indent)
        return "usage: " + ("\n" + " " * indent).join(lines) + "\n"

    def fail(self, message: str):
        sys.stderr.write(self.usage())
        sys.stderr.write(f"{self.prog}: error [E_USAGE] {message}\n")
        raise SystemExit(EX_USAGE)

    def read(self, word: str):
        """None when `word` is a value, else (argument, option string,
        value given after "=" or None); the argument is None for an option
        that this parser does not have."""
        if not word.startswith("-") or word == "-":
            return None
        if word in self.options:
            return self.options[word], word, None
        head, eq, value = word.partition("=")
        if eq and head in self.options:
            return self.options[head], head, value
        if word[1] == "-":
            found = [(argument, string, value if eq else None)
                     for string, argument in self.options.items() if string.startswith(head)]
        else:
            # a one-letter option takes the rest of its word as its value
            found = [(self.options["-h"], "-h", word[2:])] if word.startswith("-h") else []
        if len(found) > 1:
            self.fail(f"ambiguous option: {word} could match "
                      + ", ".join(string for _, string, _ in found))
        if found:
            return found[0]
        return None if NEGATIVE_NUMBER.match(word) or " " in word else (None, word, None)

    def parse(self, words: list, stop: bool = False):
        """(values by dest, the words that no argument took, the index it
        stopped at).  With `stop` it stops at the first value or "--",
        where the top level finds the command; otherwise it reads all
        words, and every word after the first "--" is a value."""
        end = words.index("--") if "--" in words else len(words)
        found = [self.read(word) for word in words[:end]]
        values = {argument.dest: argument.default for argument in self.arguments[1:]}
        seen, unknown = set(), []
        positionals = [argument for argument in self.arguments if not argument.strings]

        def bind(argument, strings):
            seen.add(argument)
            if argument is self.arguments[0]:
                sys.stdout.write(self.help())
                raise SystemExit(EX_OK)
            if not argument.nargs:
                values[argument.dest] = True
                return
            converted = []
            for string in strings:
                try:
                    converted.append(argument.type(string))
                except ValueError:
                    self.fail(f"argument {argument.name}: invalid {argument.type.__name__} "
                              f"value: {string!r}")
            values[argument.dest] = converted if argument.nargs > 1 else converted[0]

        i = 0
        while i < len(words):
            if i < end and found[i] is not None:
                argument, string, value = found[i]
                i += 1
                if argument is None:
                    unknown.append(string)
                elif value is None:
                    if i + argument.nargs > end or any(found[i:i + argument.nargs]):
                        self.fail(f"argument {argument.name}: {_expected(argument.nargs)}")
                    bind(argument, words[i:i + argument.nargs])
                    i += argument.nargs
                elif argument.nargs == 1:
                    bind(argument, [value])
                elif argument.nargs > 1:
                    self.fail(f"argument {argument.name}: {_expected(argument.nargs)}")
                else:
                    # -hh... is -h given twice or more; a flag takes no value
                    rest = value.lstrip("h") if string == "-h" else value
                    if string == "-h" and value and not rest:
                        bind(argument, [])
                    self.fail(f"argument {argument.name}: ignored explicit argument {rest!r}")
            elif stop:
                break
            elif positionals and (i != end or i + 1 < len(words)):
                # the positional takes its value with a "--" before or after it
                if i == end:
                    i += 1
                bind(positionals.pop(0), [words[i]])
                i += 2 if i + 1 == end else 1
            else:
                unknown.append(words[i])
                i += 1
        missing = [argument.name for argument in self.arguments
                   if argument.required and argument not in seen]
        if missing:
            self.fail("the following arguments are required: " + ", ".join(missing))
        return values, unknown, i

    def help(self) -> str:
        rows = [(" ".join([", ".join(argument.strings), *argument.metavar]).strip(), argument.help)
                for argument in self.arguments]
        return self.usage() + self.about() + _section("arguments", rows)


def _expected(nargs: int) -> str:
    return "expected one argument" if nargs == 1 else f"expected {nargs} arguments"


def _fill(words, start: int, indent: int) -> list:
    """`words` joined by spaces into lines that end by column WIDTH, the
    first line starting at column `start` and the others at `indent`."""
    lines, line, column = [], [], start - 1
    for word in words:
        if line and column + 1 + len(word) > WIDTH:
            lines.append(" ".join(line))
            line, column = [], indent - 1
        line.append(word)
        column += len(word) + 1
    return lines + [" ".join(line)] if line else lines


def _section(title: str, rows) -> str:
    width = max(len(name) for name, _ in rows) + 2
    return f"\n{title}:\n" + "".join(f"  {name:{width}}{text}".rstrip() + "\n" for name, text in rows)


def _about_commands() -> str:
    rows = [(name, _command_module(name).HELP) for name in COMMANDS]
    return "\n" + __doc__ + _section("commands", rows)


def _parse(argv: list) -> SimpleNamespace:
    """The arguments of the command that argv names, as attributes by
    dest, with `command` and `func`, its module's run."""
    top = _Parser("liecoh", ("{" + ",".join(COMMANDS) + "}", "..."), _about_commands)
    _, unknown, i = top.parse(argv, stop=True)
    if argv[i:] in ([], ["--"]):
        top.fail("the following arguments are required: command")
    name = argv[i]
    if name not in COMMANDS:
        top.fail(f"argument command: invalid choice: {name!r} (choose from "
                 + ", ".join(map(repr, COMMANDS)) + ")")
    module = _command_module(name)
    parser = _Parser(f"liecoh {name}")
    module.add_arguments(parser)
    values, more, _ = parser.parse(argv[i + 1:])
    if unknown + more:
        top.fail("unrecognized arguments: " + " ".join(unknown + more))
    return SimpleNamespace(command=name, **values, func=module.run)


def main(argv=None) -> int:
    """Run the command that argv (default sys.argv[1:]) names."""
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        try:
            args = _parse(argv)
            return args.func(args)
        except SystemExit as exc:
            return exc.code
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
        finally:
            sys.stdout.flush()
    except BrokenPipeError:
        silence_stdout()
        return EX_IOERR


if __name__ == "__main__":
    sys.exit(main())
