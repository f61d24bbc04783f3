"""Size and layering of the package's modules."""

import ast
import pathlib
import tokenize

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "hypineq"

# A module past the 8,192 tokens of the parser's first token array raised
# every benchmark process's peak RSS by about 0.5 MiB under Python 3.11
# (FOUND 94).  Python 3.12 counts about 4% more tokens than 3.11, since it
# splits f-strings, so the cap leaves room under both.
MAX_TOKENS = 6000
# the modules above the level machinery, which levels.py may not import
ABOVE_LEVELS = {"rearrangement", "verifier", "sharpness", "corpus", "cli", "report"}


def _tokens(path):
    """Tokens of a module by the running interpreter's tokenize, without
    comments and blank lines."""
    with open(path, encoding="utf-8") as fh:
        return sum(tok.type not in (tokenize.COMMENT, tokenize.NL)
                   for tok in tokenize.generate_tokens(fh.readline))


def _imported(path):
    """The package modules a module imports, by name."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level and node.module is None:  # from . import x, y
                names.update(a.name for a in node.names)
            else:
                names.add(node.module)
    return {name.removeprefix("hypineq.").split(".")[0] for name in names}


def test_module_size_and_layering():
    counts = {path.name: _tokens(path) for path in sorted(SRC.glob("*.py"))}
    largest = max(counts, key=counts.get)
    print(f"largest module: {largest}, {counts[largest]} tokens")
    assert all(count <= MAX_TOKENS for count in counts.values()), counts
    assert not _imported(SRC / "levels.py") & ABOVE_LEVELS
