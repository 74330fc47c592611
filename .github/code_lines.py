"""Print the size of the library, per module of src/demazure and in total.

Columns: the lines that hold code, leaving out blank lines, comments and
docstrings; the memos, functions decorated with functools.lru_cache or
functools.cache; the attributes computed once per instance, functions
decorated with roots._cached; the raise statements, a count of error
paths; the except clauses, a count of error-translation paths; and the
public names, the entries of the module's __all__.  It gates nothing.
Stdlib only; run it from the repository root:

    python .github/code_lines.py
"""

import ast, tokenize
from pathlib import Path

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}
DEFS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def decorated(tree, names):
    """The functions in tree with a decorator, called or not, of a name in names."""
    return sum(
        any(getattr(d, "attr", getattr(d, "id", None)) in names
            for d in (getattr(d, "func", d) for d in node.decorator_list))
        for node in ast.walk(tree) if isinstance(node, DEFS[2:])
    )


def count(tree, kind):
    return sum(isinstance(node, kind) for node in ast.walk(tree))


def exported(tree):
    """The number of names in the module's __all__, 0 without one."""
    return sum(
        len(ast.literal_eval(node.value)) for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets)
    )


totals = [0, 0, 0, 0, 0, 0]
print(f"{'':16}{'code':>6}{'memos':>7}{'cached':>8}{'raises':>8}{'excepts':>9}{'public':>8}")
for path in sorted(Path("src/demazure").glob("*.py")):
    tree = ast.parse(path.read_text(), str(path))
    docstrings = set()
    for node in ast.walk(tree):
        first = node.body[0] if isinstance(node, DEFS) and node.body else None
        if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                and isinstance(first.value.value, str):
            docstrings.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type not in NOT_CODE:
                code.update(range(tok.start[0], tok.end[0] + 1))
    row = (len(code - docstrings), decorated(tree, {"lru_cache", "cache"}),
           decorated(tree, {"_cached"}), count(tree, ast.Raise), count(tree, ast.ExceptHandler),
           exported(tree))
    totals = [t + n for t, n in zip(totals, row)]
    print(f"{path.name:16}{row[0]:6}{row[1]:7}{row[2]:8}{row[3]:8}{row[4]:9}{row[5]:8}")
print(f"{'total':16}{totals[0]:6}{totals[1]:7}{totals[2]:8}{totals[3]:8}{totals[4]:9}{totals[5]:8}")
