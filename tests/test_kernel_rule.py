"""The kernel rule, read from the package's source: numpy.linalg's dense
kernels run in lvmut.linalg alone (norm aside), every symmetric
eigenproblem goes through its one memoized eigh, and eigvalsh is not used.
LinAlgError is named only in lvmut.linalg, which turns a failed kernel into
the package's errors, and in the CLI's last-resort handler.
"""
import ast
from pathlib import Path

import pytest

import lvmut

PACKAGE = Path(lvmut.__file__).parent
_ALLOWED_OUTSIDE = ("norm",)  # a vector norm
_LAST_RESORT = ("cli.py", "main")  # the one (module, function) outside linalg.py naming LinAlgError


def _dotted(node):
    """'np.linalg.eigh' for the attribute chain np.linalg.eigh, None when
    the chain does not start at a name."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _linalg_names(tree):
    """(dotted name, innermost enclosing function or None, line) of every
    longest attribute chain through np.linalg or numpy.linalg in tree."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        name = _dotted(node) if isinstance(node, ast.Attribute) else None
        if name is not None:
            if name.split(".")[:2] in (["np", "linalg"], ["numpy", "linalg"]):
                found.append((name, function, node.lineno))
            return
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def _violations(module, source):
    """Each breach of the kernel rule in one module's source, one line each."""
    out = []
    if "eigvalsh" in source:
        out.append(f"{module}: names eigvalsh")
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        for name in names:
            if name.startswith(("numpy.linalg", "scipy")):
                out.append(f"{module}:{node.lineno}: imports {name}")
    for name, function, line in _linalg_names(tree):
        kernel = name.split(".", 2)[2] if name.count(".") >= 2 else ""
        allowed = kernel.split(".")[0] in _ALLOWED_OUTSIDE or (
            kernel == "LinAlgError" and (module, function) == _LAST_RESORT)
        if module != "linalg.py" and not allowed:
            out.append(f"{module}:{line}: {name} outside linalg.py")
        if kernel == "eigh" and function != "_symmetric_eigh":
            out.append(f"{module}:{line}: {name} outside _symmetric_eigh")
    return out


def test_the_package_keeps_the_kernel_rule():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert "linalg.py" in sources and "equilibrium.py" in sources
    assert [v for module, source in sources.items() for v in _violations(module, source)] == []
    # the scan sees the kernels where they are
    names = _linalg_names(ast.parse(sources["linalg.py"]))
    assert ("np.linalg.eigh", "_symmetric_eigh") in {(name, fn) for name, fn, _ in names}


# a handler that catches LinAlgError, in a function of the given name
_CATCHER = (
    "import numpy as np\n"
    "def {function}(v):\n"
    "    try:\n"
    "        return np.linalg.norm(v)\n"
    "    except np.linalg.LinAlgError:\n"
    "        return 0.0\n"
)


@pytest.mark.parametrize("module, source, breach", [
    ("equilibrium.py", "import numpy as np\nx = np.linalg.solve(a, b)\n", "np.linalg.solve outside linalg.py"),
    ("analysis.py", "import numpy\nf = numpy.linalg.eig\n", "numpy.linalg.eig outside linalg.py"),
    ("analysis.py", "import numpy as np\nla = np.linalg\n", "np.linalg outside linalg.py"),
    ("model.py", "from numpy.linalg import solve\n", "imports numpy.linalg.solve"),
    ("model.py", "from numpy import linalg\n", "imports numpy.linalg"),
    ("linalg.py", "import numpy as np\ndef spectrum(m):\n    return np.linalg.eigh(m)\n",
     "np.linalg.eigh outside _symmetric_eigh"),
    ("linalg.py", "import numpy as np\ndef spectrum(m):\n    return np.linalg.eigvalsh(m)\n",
     "names eigvalsh"),
    ("analysis.py", _CATCHER.format(function="f"), "np.linalg.LinAlgError outside linalg.py"),
    ("cli.py", _CATCHER.format(function="run"), "np.linalg.LinAlgError outside linalg.py"),
])
def test_the_scan_finds_each_kind_of_breach(module, source, breach):
    assert any(line.endswith(breach) for line in _violations(module, source))


def test_the_scan_allows_norm_anywhere_and_the_error_in_the_cli_handler():
    assert _violations("analysis.py", "import numpy as np\nx = np.linalg.norm(v)\n") == []
    assert _violations("cli.py", _CATCHER.format(function="main")) == []
