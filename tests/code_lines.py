"""Print the code lines of each module in src/rfloc and their total, then
the settable config keys (--set) of each verb and of each adapt and cv
method, with their count.

A code line holds at least one token that is not a comment and not part
of a docstring (the string that opens a module, class or function body).
Blank lines, comment lines and docstring lines do not count.

Run from the repository root:

    PYTHONPATH=src python tests/code_lines.py

A reader that closes the pipe early (``| head -3``) ends the script
quietly, with exit status 1.
"""

from __future__ import annotations

import ast
import dataclasses
import io
import os
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "rfloc"
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    source = path.read_text(encoding="utf-8")
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def config_keys() -> list[tuple[str, list[str]]]:
    """(command, its settable config keys) for each verb that takes --set,
    with adapt and cv listed per method."""
    from rfloc import cli

    def keys(config_class) -> list[str]:
        return [f.name for f in dataclasses.fields(config_class)]

    commands = [("gen-synth", keys(cli.SynthScenario)), ("train", keys(cli.TrainConfig))]
    for verb, names in (("adapt", tuple(cli.METHODS)), ("cv", cli.CV_METHODS)):
        commands += [(f"{verb} {name}", keys(cli.METHODS[name].config)) for name in names]
    return commands


def main() -> int:
    total = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        n = code_lines(path)
        total += n
        print(f"{n:6d}  {path.relative_to(PACKAGE.parent)}")
    print(f"{total:6d}  total")
    print("\nsettable config keys (--set):")
    for command, names in config_keys():
        print(f"{len(names):6d}  {command}: {', '.join(names)}")
    return 0


if __name__ == "__main__":
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe. Point stdout at devnull so the flush
        # at exit does not fail again, and end without a traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 1
    sys.exit(status)
