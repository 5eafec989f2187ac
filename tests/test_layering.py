"""The package's layers, read from its source with ``ast``.

Only ``model`` knows the spin-phonon product space: its layout, the chain
pairing and the interaction picture; only it builds a dense Hamiltonian,
one numpy sum of its dense operators, and no module expands support values
or, in the integrator, names a dense builder.  The spin-sector modules import
neither ``model`` nor the integrator, and ``model`` builds on the spin
algebra alone.  ``cli`` is the top: no package module imports it.  A
module reads no other module's underscore names, except the three shared
helpers of ``spin_algebra``: ``_frozen``, ``_stored_expm`` and ``_stored``.
Only ``spin_algebra`` names the store of derived files, ``__pycache__``,
and only ``_stored`` hashes a key and writes a file there, so the compiled
kernel and the stored exponentials share one key rule and one miss rule.
Only ``observables`` builds the parity
scan's phase grid over 2*pi.  ``cli`` declares each flag once, in
``FLAGS``, adds arguments to its parsers only in ``build_parser`` and
writes a command's output only in ``_report``; ``build_parser`` takes no
parameter, and only ``cli.main`` calls it, so a process has one parser.  Only ``repro`` runs an
acceptance criterion, from its one list of rows.  Only
``evolution._integrate`` builds a ``Trajectory``: the one run path.  Only
``spin_algebra.half_excitation`` refuses an odd number of ions.  Only
``observables.NORM_TOL`` writes a tolerance on a probability.  Only
``spin_algebra.whole`` compares a value with its ``int()``, and only
``measurement.KEY_MAX`` writes the 2**64 bound of a Philox key.  Only
``spin_algebra`` takes a ``functools`` cache, for ``constant_cache``.  Only
``measurement._draw`` calls
``.multinomial`` and only ``measurement._keyed_generator`` assigns a
``bit_generator.state``, so every shot is drawn on the one sampling path.
In ``measurement`` only ``_normalized`` calls ``np.clip``, so a sampled
probability is clipped and renormalised in one place.  Only ``evolution``
assigns or reads ``READOUT_CHUNK``: the trajectory's readouts (the chain
fidelities, the spin moments) and the norm gate read that many samples at
a time, and the modules they call take a stack of whatever size their caller
hands them.  In ``evolution`` only ``Trajectory.indices_of`` calls
``searchsorted`` and nothing calls ``argmin``, so a trajectory has one
nearest-sample search.  ``evolution`` imports no thread or queue module:
the integrator runs each block on the calling thread.
"""

import ast
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "dickesim"
TESTS = Path(__file__).resolve().parent
SPIN_SECTOR = ("observables", "certification", "measurement", "dark_state")
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))
SHARED_PRIVATE = {("spin_algebra", "_frozen"), ("spin_algebra", "_stored_expm"),
                  ("spin_algebra", "_stored")}


def _tree(module):
    return ast.parse((PACKAGE / f"{module}.py").read_text())


def _package_imports(module):
    """The package modules that ``module`` imports anywhere in its code,
    lazy imports inside functions included."""
    names = set()
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.ImportFrom):
            path = node.module or ""
            if node.level == 0:
                if path.split(".")[0] != "dickesim":
                    continue  # another package
                path = path.removeprefix("dickesim").lstrip(".")
            if path:
                names.add(path.split(".")[0])
            else:
                names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("dickesim."))
    return names


def _foreign_private_names(tree):
    """(module, name) of each underscore name that the module parsed as
    ``tree`` reads from another package module: imported by name, or read
    as an attribute of a package module it imported.  Dunders such as
    ``__version__`` are not counted."""
    imported, names = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "dickesim"):
            source = (node.module or "").removeprefix("dickesim").lstrip(".")
            for alias in node.names:
                if not source:
                    imported[alias.asname or alias.name] = alias.name
                elif alias.name.startswith("_") and not alias.name.startswith("__"):
                    names.add((source, alias.name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in imported and node.attr.startswith("_")
                and not node.attr.startswith("__")):
            names.add((imported[node.value.id], node.attr))
    return names


def _identifiers(module):
    """Every variable, argument, attribute and keyword name in ``module``."""
    names = set()
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.keyword) and node.arg is not None:
            names.add(node.arg)
    return names


def test_the_import_reader_sees_each_form():
    # ``from .model import ...``, ``from . import ...`` and a lazy import
    # inside a function
    assert {"model", "observables", "dark_state"} <= _package_imports("evolution")
    assert {"evolution", "model"} <= _package_imports("repro")
    assert "spin_algebra" in _package_imports("cli")


@pytest.mark.parametrize("module", SPIN_SECTOR)
def test_spin_sector_modules_import_neither_model_nor_evolution(module):
    assert not _package_imports(module) & {"model", "evolution"}


def test_the_integrator_starts_no_thread():
    imported = set()
    for node in ast.walk(_tree("evolution")):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module.split(".")[0])
    assert "numpy" in imported
    assert not imported & {"threading", "_thread", "queue", "concurrent", "multiprocessing"}


def test_model_imports_only_spin_algebra_and_errors():
    assert _package_imports("model") <= {"spin_algebra", "errors"}


def test_observables_names_no_phonon_truncation():
    assert "n_max" not in _identifiers("observables")


def _defined(module):
    """The names of the functions and classes that ``module`` defines."""
    return {node.name for node in ast.walk(_tree(module))
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def test_only_model_builds_a_dense_hamiltonian():
    # each Hamiltonian is one numpy sum of the dense operators in ``model``,
    # and the kernel its one other formula: no module expands support
    # values, and the integrator names no dense builder
    assert [module for module in MODULES if "expand" in _defined(module)] == []
    builders = {module: sorted(name for name in _defined(module) if name.endswith("_hamiltonian"))
                for module in MODULES}
    assert {module: names for module, names in builders.items() if names} == {
        "model": ["full_hamiltonian", "reduced_hamiltonian"]}
    operators = ("sideband_operators", "reduced_coupling_parts")
    assert [module for module in MODULES if set(operators) & _identifiers(module)] == ["model"]
    assert not {"full_hamiltonian", "reduced_hamiltonian"} & _identifiers("evolution")


def test_no_package_module_imports_the_cli():
    assert [module for module in MODULES if "cli" in _package_imports(module)] == []


def _builds_a_full_turn_grid(call):
    """Whether ``call`` is a ``linspace`` whose arguments hold ``2 * np.pi``."""
    func = call.func
    if getattr(func, "attr", getattr(func, "id", None)) != "linspace":
        return False
    return any(ast.unparse(node) == "2 * np.pi"
               for arg in (*call.args, *(kw.value for kw in call.keywords))
               for node in ast.walk(arg))


def test_the_grid_reader_sees_a_phase_grid():
    (call,) = [node for node in ast.walk(ast.parse(
        "np.linspace(0.0, 2 * np.pi, k, endpoint=False) + np.pi")) if isinstance(node, ast.Call)]
    assert _builds_a_full_turn_grid(call)
    (call,) = [node for node in ast.walk(ast.parse("np.linspace(0.0, np.pi, 13)"))
               if isinstance(node, ast.Call)]
    assert not _builds_a_full_turn_grid(call)


def test_only_observables_builds_a_phase_grid():
    builders = [module for module in MODULES for node in ast.walk(_tree(module))
                if isinstance(node, ast.Call) and _builds_a_full_turn_grid(node)]
    assert builders == ["observables"]


def test_the_private_name_reader_sees_each_form():
    # ``from .spin_algebra import _frozen``, ``from dickesim.x import _y`` and
    # an attribute of a module imported with ``from . import``
    assert ("spin_algebra", "_frozen") in _foreign_private_names(_tree("certification"))
    source = ("from dickesim.model import _support\n"
              "from . import observables as obs, __version__\n"
              "obs._product_traces(rhos, op), obs.witness(state)\n")
    assert _foreign_private_names(ast.parse(source)) == {("model", "_support"),
                                                         ("observables", "_product_traces")}


@pytest.mark.parametrize("module", MODULES)
def test_modules_read_no_other_module_s_private_names(module):
    assert _foreign_private_names(_tree(module)) <= SHARED_PRIVATE


def _assigned(tree, name):
    """The value of the module-level assignment to ``name``."""
    (value,) = [node.value for node in tree.body if isinstance(node, ast.Assign)
                and [getattr(target, "id", None) for target in node.targets] == [name]]
    return value


def _add_argument_calls(node):
    return [call for call in ast.walk(node) if isinstance(call, ast.Call)
            and isinstance(call.func, ast.Attribute) and call.func.attr == "add_argument"]


def test_cli_adds_arguments_only_in_build_parser():
    tree = _tree("cli")
    (build,) = [node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "build_parser"]
    inside = _add_argument_calls(build)
    assert inside and len(inside) == len(_add_argument_calls(tree))


def _called_names(node):
    """The names of the functions that ``node`` calls, bare or as attributes."""
    return {call.func.id if isinstance(call.func, ast.Name) else call.func.attr
            for call in ast.walk(node) if isinstance(call, ast.Call)
            and isinstance(call.func, (ast.Name, ast.Attribute))}


def test_only_repro_calls_a_criterion():
    # a row of the acceptance table runs from repro.ROWS, never from a
    # second list in another module or in a test
    callers = [path.stem for path in (*PACKAGE.glob("*.py"), *TESTS.glob("*.py"))
               if any(name.startswith("criterion_")
                      for name in _called_names(ast.parse(path.read_text())))]
    assert set(callers) <= {"repro"}
    assert "criterion_4" in _called_names(ast.parse("repro.criterion_4()"))


def test_cli_writes_command_output_only_in_report():
    functions = {node.name: node for node in _tree("cli").body
                 if isinstance(node, ast.FunctionDef)}
    assert [name for name, node in functions.items()
            if "format_csv" in _called_names(node)] == ["_report"]
    commands = [name for name in functions if name.startswith("cmd_")]
    writers = [name for name in commands
               if _called_names(functions[name]) & {"print", "open", "write"}]
    # repro prints its table of criteria, not a CSV
    assert len(commands) == 8 and writers == ["cmd_repro"]


def test_each_cli_flag_is_declared_once_and_taken_by_a_subcommand():
    tree = _tree("cli")
    declared = [key.value for key in _assigned(tree, "FLAGS").keys]
    taken = {node.value for node in ast.walk(_assigned(tree, "SUBCOMMANDS"))
             if isinstance(node, ast.Constant) and str(node.value).startswith("--")}
    # a repeated key of a dict literal would silently replace the first
    assert len(declared) == len(set(declared))
    assert set(declared) == taken


def _enclosing_functions(tree, matches):
    """The name of the function around each node of ``tree`` that
    ``matches``, in a lambda that function's, and None for a node outside
    any function."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if matches(child):
                found.append(function)
            visit(child, function)

    visit(tree, None)
    return found


def test_only_integrate_builds_a_trajectory():
    # each run is checked, planned, run and recorded on the one run path;
    # a model's integrator supplies its Hamiltonian and stable step only
    builders = [(module, function) for module in MODULES
                for function in _callers(_tree(module), "Trajectory")]
    assert builders == [("evolution", "_integrate")]


def test_one_parser_per_process():
    # a parser keyed on its arguments would let the cache hold several
    (build,) = [node for node in _tree("cli").body
                if isinstance(node, ast.FunctionDef) and node.name == "build_parser"]
    assert ast.unparse(build.args) == ""
    builders = [(module, function) for module in MODULES
                for function in _callers(_tree(module), "build_parser")]
    assert builders == [("cli", "main")]


_EVEN_IONS = re.compile(r"\beven\b.*\b(n_)?ions?\b")


def _odd_ion_refusers(tree):
    """The function around each ``raise`` in ``tree`` whose message, plain
    or formatted, speaks of an even number of ions."""
    def refuses(node):
        return isinstance(node, ast.Raise) and node.exc is not None and bool(_EVEN_IONS.search(
            " ".join(part.value for part in ast.walk(node.exc)
                     if isinstance(part, ast.Constant) and isinstance(part.value, str))))

    return _enclosing_functions(tree, refuses)


def test_the_odd_ion_reader_sees_each_form():
    source = ("def f(n):\n    raise ValueError(f'needs an even number of ions, got {n}')\n"
              "def g(n):\n    raise ValueError('defined for even ion numbers')\n"
              "def h(n):\n    raise ValueError(f'exist only for even n_ions >= 2, got {n}')\n"
              "def k(n):\n    raise ValueError('an even count of phases')\n"
              "raise ValueError('an even number of ions')\n")
    assert _odd_ion_refusers(ast.parse(source)) == ["f", "g", "h", None]


def test_only_half_excitation_refuses_an_odd_ion_number():
    # one owner for the even-N rule: every half-excited state, dark state
    # and certification asks spin_algebra.half_excitation for N/2
    refusers = [(module, function) for module in MODULES
                for function in _odd_ion_refusers(_tree(module))]
    assert refusers == [("spin_algebra", "half_excitation")]


def _definition(tree, name):
    """The ids of the nodes in the value of each module-level assignment
    of ``tree`` that defines ``name``."""
    return {id(node) for statement in tree.body if isinstance(statement, ast.Assign)
            and [getattr(target, "id", None) for target in statement.targets] == [name]
            for node in ast.walk(statement.value)}


def _small_float_literals(tree):
    """Each nonzero float literal of ``tree`` below 1e-6 in magnitude, a
    negated one included, except the value of the module-level assignment
    that defines ``NORM_TOL``."""
    owner = _definition(tree, "NORM_TOL")
    return sorted(node.value for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and type(node.value) is float
                  and 0 < abs(node.value) < 1e-6 and id(node) not in owner)


def test_the_tolerance_reader_sees_each_form():
    source = ("NORM_TOL = 1e-8\nOTHER_TOL = 1e-9\n"
              "def f(p):\n    return (p >= -1e-12) & (p <= 1 + 1e-11) & (p > 1e-6) & (p != 0.0)\n"
              "def g(x):\n    NORM_TOL = 1e-7\n    return x\n")
    assert _small_float_literals(ast.parse(source)) == [1e-12, 1e-11, 1e-9, 1e-7]


@pytest.mark.parametrize("module", ("certification", "measurement", "observables"))
def test_only_norm_tol_writes_a_probability_tolerance(module):
    # one owner for how far a probability may stray from [0, 1]: a state's
    # total probability and a measured population alike
    assert _small_float_literals(_tree(module)) == []


def _int_comparers(tree):
    """The function around each comparison in ``tree`` that has an
    ``int(...)`` call as an operand."""
    def compares_an_int(node):
        return isinstance(node, ast.Compare) and any(
            isinstance(operand, ast.Call) and getattr(operand.func, "id", None) == "int"
            for operand in (node.left, *node.comparators))

    return _enclosing_functions(tree, compares_an_int)


def test_the_int_comparison_reader_sees_each_form():
    source = ("def f(x):\n    return int(x) != x or x < 1\n"
              "def g(x):\n    return 0 <= x and x == int(x)\n"
              "def h(x):\n    n = int(x)\n    return n == x\n"
              "int(y) < 3\n")
    assert _int_comparers(ast.parse(source)) == ["f", "g", None]


def test_only_whole_compares_a_value_with_its_int():
    # one owner for "an integer in [low, high]": every count and key asks
    # spin_algebra.whole, which refuses nan and +-inf before int() sees them
    comparers = [(module, function) for module in MODULES
                 for function in _int_comparers(_tree(module))]
    assert comparers == [("spin_algebra", "whole")]


def _key_bounds(tree):
    """Each ``2 ** 64`` or ``1 << 64`` of ``tree``, as sorted source text, except
    in the value of the module-level assignment that defines ``KEY_MAX``."""
    owner = _definition(tree, "KEY_MAX")
    return sorted(ast.unparse(node) for node in ast.walk(tree)
                  if isinstance(node, ast.BinOp) and id(node) not in owner
                  and ast.unparse(node) in ("2 ** 64", "1 << 64"))


def test_the_key_bound_reader_sees_each_form():
    source = ("KEY_MAX = 2**64 - 1\n"
              "def f(s):\n    return 0 <= s < 2**64\n"
              "MASK = (1 << 64) - 1\n"
              "def g():\n    KEY_MAX = 2 ** 64\n")
    assert _key_bounds(ast.parse(source)) == ["1 << 64", "2 ** 64", "2 ** 64"]


def test_only_key_max_writes_the_philox_key_bound():
    assert ast.unparse(_assigned(_tree("measurement"), "KEY_MAX")) == "2 ** 64 - 1"
    assert [module for module in MODULES if _key_bounds(_tree(module))] == []


_CACHE_DECORATORS = ("lru_cache", "cache")


def _functools_cache_users(tree):
    """The function around each import of ``lru_cache`` or ``cache`` from
    ``functools`` in ``tree`` and each ``functools.lru_cache`` or
    ``functools.cache`` read there, a decorator included."""
    def uses_a_cache(node):
        if isinstance(node, ast.ImportFrom):
            return node.module == "functools" and any(
                alias.name in _CACHE_DECORATORS for alias in node.names)
        return (isinstance(node, ast.Attribute) and node.attr in _CACHE_DECORATORS
                and getattr(node.value, "id", None) == "functools")

    return _enclosing_functions(tree, uses_a_cache)


def test_the_cache_reader_sees_each_form():
    source = ("from functools import lru_cache, partial\n"
              "import functools\n"
              "@functools.cache\ndef f():\n    return 1\n"
              "def g():\n    from functools import cache\n    return functools.lru_cache(3)\n"
              "from functools import wraps\n")
    assert _functools_cache_users(ast.parse(source)) == [None, "f", "g", "g"]


def test_only_spin_algebra_takes_a_functools_cache():
    # every constant, the compiled RK4 step too, is cached by
    # spin_algebra.constant_cache, which reads its counts through their rules
    # and makes its arrays read-only
    users = [(module, function) for module in MODULES
             for function in _functools_cache_users(_tree(module))]
    assert users == [("spin_algebra", None)]


def _draw_path_bypasses(tree):
    """(what, function) for each ``.multinomial(...)`` call in ``tree`` and
    each assignment to an attribute ``bit_generator.state``, with the
    function around it."""
    def calls_multinomial(node):
        return isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "multinomial"

    def sets_a_key(node):
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        return isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)) and any(
            isinstance(target, ast.Attribute) and target.attr == "state"
            and getattr(target.value, "attr", None) == "bit_generator" for target in targets)

    return ([("multinomial", f) for f in _enclosing_functions(tree, calls_multinomial)]
            + [("state", f) for f in _enclosing_functions(tree, sets_a_key)])


def test_the_draw_path_reader_sees_each_form():
    source = ("def f(g, p):\n    return g.multinomial(10, p)\n"
              "def g(gen):\n    gen.bit_generator.state = {}\n"
              "class C:\n    def h(self):\n        self.gen.bit_generator.state: dict = {}\n"
              "np.random.default_rng(1).multinomial(3, [1.0])\n"
              "def k(gen):\n    state = gen.bit_generator.state\n    gen.state = state\n")
    assert _draw_path_bypasses(ast.parse(source)) == [
        ("multinomial", "f"), ("multinomial", None), ("state", "g"), ("state", "h")]


def test_only_draw_samples_and_only_keyed_generator_rekeys():
    # one path for every shot: a sampler that drew its own multinomial or
    # keyed its own Philox would escape the stream layout and the counters
    # that the benchmark's trace takes at measurement._draw
    found = [(what, module, function) for module in MODULES
             for what, function in _draw_path_bypasses(_tree(module))]
    assert found == [("multinomial", "measurement", "_draw"),
                     ("state", "measurement", "_keyed_generator")]


def _callers(tree, name):
    """The function around each call of ``name`` in ``tree``, such as
    ``np.clip``, a bare ``clip`` or an array's ``.clip`` for "clip"."""
    return _enclosing_functions(tree, lambda node: isinstance(node, ast.Call) and name in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None)))


def test_the_call_reader_sees_each_form():
    source = ("def f(p):\n    return np.clip(p, 0.0, None)\n"
              "class C:\n    def g(self, p):\n        return p.clip(0.0, 1.0)\n"
              "    def k(self):\n        h = lambda p: clip(p, 0, 1)\n"
              "clip(q, 0, 1)\n"
              "def h(p):\n    return np.clipped(p)\n")
    assert _callers(ast.parse(source), "clip") == ["f", "g", "k", None]


def test_measurement_clips_only_in_normalized():
    # a second clip before the draw would be a second place to round a
    # probability into [0, 1]
    assert _callers(_tree("measurement"), "clip") == ["_normalized"]


def _chunk_uses(tree):
    """How ``tree`` names ``READOUT_CHUNK``: "assign" for each assignment
    to it, "import" for each import of it by name and "read" for each other
    mention, bare or as an attribute."""
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            uses += ["import" for alias in node.names if alias.name == "READOUT_CHUNK"]
        elif isinstance(node, ast.Name) and node.id == "READOUT_CHUNK":
            uses.append("assign" if isinstance(node.ctx, ast.Store) else "read")
        elif isinstance(node, ast.Attribute) and node.attr == "READOUT_CHUNK":
            uses.append("read")
    return sorted(uses)


def test_the_chunk_reader_sees_each_form():
    source = ("from .observables import NORM_TOL, READOUT_CHUNK\n"
              "READOUT_CHUNK = 128\n"
              "def f(n):\n    return range(0, n, READOUT_CHUNK) or obs.READOUT_CHUNK\n")
    assert _chunk_uses(ast.parse(source)) == ["assign", "import", "read", "read"]


def test_only_evolution_owns_the_readout_chunk():
    # the readouts of a trajectory bound their stacks in ``evolution``;
    # ``model`` and ``observables`` read whatever stack they are handed
    uses = {module: set(_chunk_uses(_tree(module))) for module in MODULES}
    assert {module: found for module, found in uses.items() if found} == {
        "evolution": {"assign", "read"}}


def test_a_trajectory_has_one_nearest_sample_search():
    # the midpoint and the cuts of a truncated scan are found the same way
    tree = _tree("evolution")
    (trajectory,) = [node for node in tree.body
                     if isinstance(node, ast.ClassDef) and node.name == "Trajectory"]
    assert _callers(tree, "searchsorted") == _callers(trajectory, "searchsorted") == [
        "indices_of"]
    assert _callers(tree, "argmin") == []


def test_the_package_has_one_store():
    names = {module for module in MODULES for node in ast.walk(_tree(module))
             if isinstance(node, ast.Constant) and node.value == "__pycache__"}
    assert names == {"spin_algebra"}
    for call in ("sha256", "mkstemp"):
        callers = {module: _callers(_tree(module), call) for module in MODULES}
        assert {module: found for module, found in callers.items() if found} == {
            "spin_algebra": ["_stored"]}, call
