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


class _Scopes(ast.NodeVisitor):
    """The scopes, as module.class.function, that hold a node for which
    match(node) is true."""

    def __init__(self, module, match):
        self.scope, self.match, self.found = [module], match, set()

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_ClassDef = visit_FunctionDef

    def generic_visit(self, node):
        if self.match(node):
            self.found.add(".".join(self.scope))
        super().generic_visit(node)


def _calls(name):
    return lambda node: isinstance(node, ast.Call) and getattr(
        node.func, "attr", getattr(node.func, "id", None)) == name


def _scopes(match):
    """The scopes of src/fermatlab that hold a node matching `match`."""
    scopes = set()
    for module, tree in _syntax_trees():
        visitor = _Scopes(module, match)
        visitor.visit(tree)
        scopes |= visitor.found
    return scopes


def _callers(name):
    """The scopes of src/fermatlab that call `name`."""
    return _scopes(_calls(name))


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
                visitor = _Scopes(module, _calls("square_blocks"))
                visitor.visit(loop)
                in_while |= visitor.found
    assert in_while == set()


def test_only_the_block_driver_tests_a_residue_for_one():
    # square_blocks stops squaring once every chain is at 1, and
    # neither kernel, _fft's nor the integer loop of mod_square_chains,
    # looks for a 1: no is_one and no comparison with 1 in either
    def is_one(node):
        return isinstance(node, ast.Attribute) and node.attr == "is_one"

    def tests_for_one(node):
        return is_one(node) or isinstance(node, ast.Compare) and any(
            isinstance(side, ast.Constant) and side.value == 1
            for side in (node.left, *node.comparators))

    assert "arith.square_blocks" in _scopes(is_one)
    assert {scope for scope in _scopes(tests_for_one)
            if scope.startswith("_fft")
            or scope in {"arith.mod_square_chains", "arith._mulmod"}} \
        == set()


def test_chain_layers_take_no_power_modulo_a_factor():
    # factors.refutes_congruence alone asks a known factor whether the
    # congruence fails, for the orders and the audit alike
    assert {scope for scope in _scopes(
        lambda node: _calls("pow")(node) and len(node.args) == 3)
        if scope.partition(".")[0] in {"orders", "primality"}} == set()


def test_the_checkpoint_writer_runs_its_own_chain():
    # the CLI builds the writer and calls its run(); no library function
    # takes a writer, so none has to check that it is for its chain
    assert _callers("CheckpointWriter") == {"cli.cmd_pepin"}
    assert [f"{module}.{node.name}" for module, tree in _syntax_trees()
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and "checkpoints" in {a.arg for a in ast.walk(node.args)
                                  if isinstance(a, ast.arg)}] == []
    tree = dict(_syntax_trees())["primality"]
    assert [ast.unparse(node) for node in ast.walk(tree)
            if _imports_fermatlab(node)
            and "checkpoint" in ast.unparse(node)] == []


def test_records_are_built_without_timing():
    # a builder is a function of its command's result; one CLI helper
    # stamps elapsed_seconds, and strip_timing alone takes it off again
    tree = dict(_syntax_trees())["records"]
    assert [node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and "elapsed" in {a.arg for a in ast.walk(node.args)
                              if isinstance(a, ast.arg)}] == []
    assert _scopes(lambda node: isinstance(node, ast.Constant)
                   and node.value == "elapsed_seconds") \
        == {"cli._timed", "records.strip_timing"}


def test_one_exit_for_a_failed_check():
    # _emit alone turns a failed check into exit 4 and its stderr line;
    # every command but selftest returns the code _emit gives it
    def named(node):
        return isinstance(node, ast.Name) \
            and node.id == "EXIT_THEOREM_VIOLATION"

    assert _scopes(named) == {"cli", "cli._emit"}
    assert _scopes(lambda node: isinstance(node, ast.Constant)
                   and "should be impossible" in str(node.value)) \
        == {"cli._emit"}
    assert _scopes(lambda node: isinstance(node, ast.Expr)
                   and _calls("_emit")(node.value)) == {"cli.cmd_selftest"}


def test_records_import_nothing_from_importlib():
    # the schema is package data that only the tests read
    tree = dict(_syntax_trees())["records"]
    assert [ast.unparse(node) for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and "importlib" in ast.unparse(node)] == []


def test_only_the_process_entry_freezes_the_collector():
    # cli.main, and the library under it, run many times in one process
    # (tests, clibench/tracer.py): frozen objects are never collected
    assert _callers("freeze") == {"cli.entry"}


def test_no_module_keeps_global_state():
    # a chain's results and counts come back from its calls
    assert [module for module, tree in _syntax_trees()
            for node in ast.walk(tree) if isinstance(node, ast.Global)] == []


def test_no_module_imports_multiprocessing():
    # every chain squares in the calling process; a process pool comes
    # back only with a workload that shows it pays
    def imports_multiprocessing(node):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            return False
        return any(name.partition(".")[0] == "multiprocessing"
                   for name in names)

    assert _scopes(imports_multiprocessing) == set()


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
