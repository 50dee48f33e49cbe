"""Every name a module of the package imports is used in that module and is
exported by the sibling it comes from, every defaulted parameter of the
package is set by some call, and the program runs without scipy."""

import ast
import math
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "byzfusion"
PERFBENCH = ROOT / "perfbench"
# the command-line entry point takes argv from the interpreter, not from a call
KNOB_EXEMPT = {"main(argv)"}


def unused_imports(path):
    """(line, name) of each name bound by an import in `path` that the module never reads.

    A name counts as read when it appears as an identifier anywhere in the
    module (attribute chains start with one) or as a string in ``__all__``.
    ``from __future__`` imports are skipped.
    """
    tree = ast.parse(path.read_text(), str(path))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.append((node.lineno, name))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= exported_names(path)
    return [(line, name) for line, name in imported if name not in used]


def test_program_loads_no_scipy(tmp_path):
    # scipy is a test and benchmark dependency only: a fresh interpreter that
    # imports the command line, estimates a matrix and solves a game on the
    # LP route loads no scipy module
    code = (
        "import sys\n"
        "import byzfusion, byzfusion.cli\n"
        "from byzfusion import FixedCount, Scenario, estimate_payoff_matrix, solve_mixed\n"
        "scenario = Scenario(8, 2, 0.1, FixedCount(2), FixedCount(2))\n"
        "estimate_payoff_matrix(scenario, trials=4)\n"
        "assert solve_mixed([[1.0, 0.0], [0.0, 1.0]]).pure is None\n"
        "print(sorted(name for name in sys.modules if name.startswith('scipy')))\n"
    )
    path = os.pathsep.join(p for p in (str(SRC.parent), os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert out.stdout.strip() == "[]"


def test_no_unused_imports():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = [
        f"{path.name}:{line} {name}" for path in modules for line, name in unused_imports(path)
    ]
    assert unused == []


def test_scan_flags_an_unused_name(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from .model import (\n"
        "    mix64,\n"
        "    placement_law,\n"
        ")\n"
        "__all__ = ['mix64']\n"
        "def f():\n"
        "    return os.path.join(np.pi)\n"
    )
    assert unused_imports(path) == [(4, "placement_law")]


def exported_names(path):
    """The strings in the ``__all__`` of the module at `path`, empty if it has none."""
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unexported_imports(package):
    """module:line sibling.name for each name a module of `package` imports with
    ``from .sibling import name`` that is not in the sibling's ``__all__``.

    ``from . import name`` reads the package's ``__init__``; importing a
    sibling module that way is allowed.
    """
    modules = {p.stem: p for p in package.glob("*.py")}
    out = []
    for path in sorted(modules.values()):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not (isinstance(node, ast.ImportFrom) and node.level == 1):
                continue
            source = node.module or "__init__"
            exported = exported_names(modules[source])
            for alias in node.names:
                if node.module is None and alias.name in modules:
                    continue
                if alias.name not in exported:
                    out.append(f"{path.stem}:{node.lineno} {source}.{alias.name}")
    return out


def test_imports_cross_module_boundaries_by_all():
    # a sibling's name that is not in its __all__ is private to it
    assert unexported_imports(SRC) == []


def test_boundary_scan_flags_an_unexported_name(tmp_path):
    (tmp_path / "__init__.py").write_text("__all__ = ['VERSION']\nVERSION = '1'\n")
    (tmp_path / "a.py").write_text("__all__ = ['f']\ndef f(): pass\ndef _g(): pass\nK = 1\n")
    (tmp_path / "b.py").write_text(
        "from . import VERSION, a, other\n"
        "from .a import K, _g, f\n"
    )
    assert unexported_imports(tmp_path) == [
        "b:1 __init__.other", "b:2 a.K", "b:2 a._g",
    ]


def defaulted_parameters(tree):
    """(callee, parameter, position) of each defaulted parameter defined in `tree`.

    The callee is the name a call spells: the function or method name, or the
    class name for ``__init__`` and for a dataclass field. The position is
    where a call passes the parameter positionally (``self`` not counted),
    or None for a keyword-only parameter.
    """
    out = []
    for scope in [tree] + [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]:
        is_class = isinstance(scope, ast.ClassDef)
        for node in scope.body:
            if not isinstance(node, ast.FunctionDef):
                continue
            callee = scope.name if node.name == "__init__" else node.name
            positional = node.args.posonlyargs + node.args.args
            first = len(positional) - len(node.args.defaults)
            out += [(callee, a.arg, i - is_class) for i, a in enumerate(positional) if i >= first]
            out += [
                (callee, a.arg, None)
                for a, d in zip(node.args.kwonlyargs, node.args.kw_defaults)
                if d is not None
            ]
        decorators = getattr(scope, "decorator_list", [])
        decorators = [d.func if isinstance(d, ast.Call) else d for d in decorators]
        if any(getattr(d, "id", None) == "dataclass" for d in decorators):
            fields = [n for n in scope.body if isinstance(n, ast.AnnAssign)]
            out += [(scope.name, f.target.id, i) for i, f in enumerate(fields) if f.value]
    return out


def unset_knobs(defining, calling):
    """callee(parameter) of each defaulted parameter in `defining` that no call in `calling` passes.

    Calls match by the name they spell. A starred argument passes every
    position, a ``**`` argument every keyword.
    """
    most_positional, keywords = {}, {}
    for path in calling:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                callee = getattr(node.func, "id", getattr(node.func, "attr", None))
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                npos = math.inf if starred else len(node.args)
                most_positional[callee] = max(most_positional.get(callee, 0), npos)
                keywords.setdefault(callee, set()).update(k.arg or "**" for k in node.keywords)
    unset = []
    for path in defining:
        for callee, param, pos in defaulted_parameters(ast.parse(path.read_text(), str(path))):
            names = keywords.get(callee, set())
            if param in names or "**" in names:
                continue
            if pos is None or pos >= most_positional.get(callee, 0):
                unset.append(f"{callee}({param})")
    return [knob for knob in unset if knob not in KNOB_EXEMPT]


def test_no_unset_knobs():
    # a defaulted parameter that no call sets is a constant in disguise
    package = sorted(SRC.glob("*.py"))
    assert package
    assert unset_knobs(package, package + sorted(PERFBENCH.glob("*.py"))) == []


def test_knob_scan_flags_a_never_passed_default(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "from dataclasses import dataclass\n"
        "def f(a, b=1, c=2, *, d=3):\n"
        "    return a + b + c + d\n"
        "class K:\n"
        "    def __init__(self, x, y=0):\n"
        "        self.z = f(x, y, d=x)\n"
        "    def g(self, w=None):\n"
        "        return w\n"
        "@dataclass\n"
        "class D:\n"
        "    p: int\n"
        "    q: int = 0\n"
        "    r: int = 1\n"
        "def main(argv=None):\n"
        "    return K(1).g(), D(1, 2), f(*argv)\n"
    )
    # main(argv) is exempt, and f(*argv) passes every position
    assert unset_knobs([path], [path]) == ["K(y)", "g(w)", "D(r)"]


# the oracle's reference functions, and the one decoder name they may read
REFERENCES = {"enumerate_placements", "_placement_sum", "exact_likelihood", "exact_map_decision"}
SHARED_TIE_RULE = "argmax_lex"


def decoder_reads(path):
    """function:name for each name from ``fusion`` or ``dp`` that a reference function reads.

    Names come from ``from .fusion import ...`` and ``from .dp import ...``,
    and the module names themselves where ``from . import fusion`` binds
    them. Fails if a reference function is missing, so a rename cannot empty
    the scan.
    """
    tree = ast.parse(path.read_text(), str(path))
    decoder = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module in ("fusion", "dp") or alias.name in ("fusion", "dp"):
                    decoder.add(alias.asname or alias.name)
    decoder.discard(SHARED_TIE_RULE)
    functions = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    assert REFERENCES <= functions.keys()
    return sorted({
        f"{name}:{node.id}"
        for name in REFERENCES
        for node in ast.walk(functions[name])
        if isinstance(node, ast.Name) and node.id in decoder
    })


def test_oracle_references_read_nothing_from_the_decoder():
    # the exact references stay independent of what they check
    assert decoder_reads(SRC / "oracle.py") == []


def test_reference_scan_flags_a_decoder_call(tmp_path):
    text = (SRC / "oracle.py").read_text()
    anchor = "    n = mism.shape[1]\n"
    assert text.count(anchor) == 1
    path = tmp_path / "oracle.py"
    path.write_text(text.replace(anchor, anchor + "    BatchFuser(model, n, m)\n"))
    assert decoder_reads(path) == ["_placement_sum:BatchFuser"]
