"""The test configuration itself: a failing test fails, it does not abort.

pyproject.toml turns warnings into errors; a warning raised inside a
pytest plugin's own hook would otherwise end the session with an
INTERNALERROR and skip every test after it.

Also rules on the source tree that no behaviour shows, read from its
syntax tree.
"""

import ast
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIG = ROOT / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
'''


def test_failing_property_test_is_one_failure(tmp_path):
    (tmp_path / "test_prop.py").write_text(FAILING_PROPERTY,
                                           encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(CONFIG),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q",
         "test_prop.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout


def _syntax_trees():
    for path in sorted((ROOT / "src" / "fermatlab").glob("*.py")):
        yield path.stem, ast.parse(path.read_text(encoding="utf-8"))


class _Callers(ast.NodeVisitor):
    """The scopes, as module.class.function, that call a given name."""

    def __init__(self, module, name):
        self.scope, self.name, self.found = [module], name, set()

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_ClassDef = visit_FunctionDef

    def visit_Call(self, node):
        func = node.func
        if getattr(func, "attr", getattr(func, "id", None)) == self.name:
            self.found.add(".".join(self.scope))
        self.generic_visit(node)


def _callers(name):
    """The scopes of src/fermatlab that call `name`."""
    callers = set()
    for module, tree in _syntax_trees():
        visitor = _Callers(module, name)
        visitor.visit(tree)
        callers |= visitor.found
    return callers


def test_known_factor_check_runs_only_in_square_blocks_and_on_load():
    # arith.square_blocks checks every residue a caller reads;
    # load_checkpoint checks a residue read from a file
    assert _callers("check_known_factor") \
        == {"arith.square_blocks", "checkpoint.load_checkpoint"}


def test_one_squaring_routine():
    # mod_square_chains alone calls the FFT kernel and holds the integer
    # squaring loop; every chain but selftest's goes through
    # square_blocks, and mod_square_chain is the batch of one
    assert _callers("square_chain") == {"arith.mod_square_chains"}
    assert _callers("_mulmod") == {"arith.mod_mul", "arith.mod_square_chains"}
    chains = {caller for name in ("mod_square_chain", "mod_square_chains")
              for caller in _callers(name)
              if not caller.startswith("selftest.")}
    assert chains == {"arith.square_blocks", "arith.mod_square_chain"}


def test_block_driver_is_driven_once_per_chain():
    # the four callers each take one pass of square_blocks per chain (two
    # for an order that finds alpha), and none restarts it from a loop
    assert _callers("square_blocks") == {
        "primality._batch_taps", "primality.pepin_test",
        "orders.order_alpha", "checkpoint.CheckpointWriter.run"}
    in_while = set()
    for module, tree in _syntax_trees():
        for loop in ast.walk(tree):
            if isinstance(loop, ast.While):
                visitor = _Callers(module, "square_blocks")
                visitor.visit(loop)
                in_while |= visitor.found
    assert in_while == set()


def test_only_the_process_entry_freezes_the_collector():
    # cli.main, and the library under it, run many times in one process
    # (tests, clibench/tracer.py): frozen objects are never collected
    assert _callers("freeze") == {"cli.entry"}


def test_no_module_keeps_global_state():
    # a chain's results and counts come back from its calls
    assert [module for module, tree in _syntax_trees()
            for node in ast.walk(tree) if isinstance(node, ast.Global)] == []


def _imports_fermatlab(node) -> bool:
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 \
            or (node.module or "").partition(".")[0] == "fermatlab"
    return isinstance(node, ast.Import) and any(
        alias.name.partition(".")[0] == "fermatlab" for alias in node.names)


def test_fft_kernel_imports_no_fermatlab_module():
    # the kernel squares digits and refuses a bad squaring; arith owns
    # the integers, and squares a refused call on them
    tree = dict(_syntax_trees())["_fft"]
    assert [ast.unparse(node) for node in ast.walk(tree)
            if _imports_fermatlab(node)] == []
