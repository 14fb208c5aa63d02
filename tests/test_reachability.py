"""Every top-level definition in ``src/opweb`` is reached by name from
``cli.main`` or from one of a few kept roots, each kept for a reason and
none reached from ``cli.main``; every defaulted parameter of a module-level
function is passed by some call in ``src/opweb``, or is kept for a reason;
and every function that ``_walk.c`` exports is called by a reached body of
``_native``.

The reach is static: a definition reaches every top-level name of its own
module that it mentions, every name it imports from a sibling module, and
every ``module.name`` it reads off a sibling module it imported.  Calls that
resolve through instances (methods) stay inside their class.  The census of
parameters resolves calls the same way.
"""

import ast
import re
from pathlib import Path

import opweb

PACKAGE = Path(opweb.__file__).parent

KEPT_ROOTS = {
    # the batteries' family count on one Config, which tests check the
    # batched counts against
    "couple.family_eta": "one-configuration form of a battery",
    # references that tests compare the walks and the oracle against
    "explore.ExplorationCluster": (
        "test reference walk; `bench/tracing.py` patches it by attribute"),
    "lattice.edge_status": "test reference",
    "lattice.edge_key": "test reference",
    "lattice.unpack_edge_key": "test reference",
    "lattice.independence_probe": "test reference",
    "oracle.dp_rightmost_path": "test reference",
    "oracle._ladder_outcome": "test reference",
    "oracle.coalescing_walk_survival": "test reference",
    "oracle.gap_walk_survival_exact": "test reference",
    # the paper's approximation claim, awaiting its command-line wiring
    "explore.gamma_approx": "paper claim, not yet wired",
    "explore.boundary_ordering_check": "paper claim, not yet wired",
    "regen.error_gap_frequencies": "paper claim, not yet wired",
    "metrics.shear_rescale": "paper claim, not yet wired",
    "metrics.path_distance": "paper claim, not yet wired",
}

# defaulted parameters that no call in src/opweb passes
KEPT_DEFAULTS = {
    "cli.main(argv)": "the entry point",
    "oracle.check_suite(slack)": "negative control that tests inject",
    "oracle.check_suite(corrupt_run)": "negative control that tests inject",
    "couple.family_eta(cap)": "run parameter of a kept root",
    "couple.family_eta(scan_guard)": "run parameter of a kept root",
    "explore.gamma_approx(scan_guard)": "run parameter of a kept root",
    "regen.error_gap_frequencies(seed)": "run parameter of a kept root",
    "regen.error_gap_frequencies(workers)": "run parameter of a kept root",
    "regen.error_gap_frequencies(scan_guard)": "run parameter of a kept root",
}


def _modules():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))}


def _definitions(tree):
    """Top-level name -> the statement that defines it."""
    defs = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            defs[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [
                node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        defs[name.id] = node
    return defs


def _imports(tree, modules):
    """Names bound by relative imports anywhere in the module: a name to
    its ``(module, name)``, and a module alias to its module."""
    names, aliases = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                bound = alias.asname or alias.name
                if node.module is None and alias.name in modules:
                    aliases[bound] = alias.name
                elif node.module is None:
                    names[bound] = ("__init__", alias.name)
                else:
                    names[bound] = (node.module, alias.name)
    return names, aliases


def _graph():
    """``module.name`` -> the ``module.name`` definitions it mentions."""
    trees = _modules()
    graph = {}
    for mod, tree in trees.items():
        defs = _definitions(tree)
        names, aliases = _imports(tree, trees)
        for name, node in defs.items():
            out = set()
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    if sub.id in defs and sub.id != name:
                        out.add(f"{mod}.{sub.id}")
                    elif sub.id in names:
                        out.add("{}.{}".format(*names[sub.id]))
                elif (isinstance(sub, ast.Attribute)
                      and isinstance(sub.value, ast.Name)
                      and sub.value.id in aliases):
                    out.add(f"{aliases[sub.value.id]}.{sub.attr}")
            graph[f"{mod}.{name}"] = out
    return graph


def _unreached(graph, roots):
    seen, todo = set(), list(roots)
    while todo:
        node = todo.pop()
        if node not in seen:
            seen.add(node)
            todo.extend(graph.get(node, ()))
    return sorted(set(graph) - seen)


def test_every_definition_is_reached_from_the_cli_or_a_kept_root():
    graph = _graph()
    assert set(KEPT_ROOTS) <= set(graph), "a kept root no longer exists"
    unreached = _unreached(graph, ["cli.main", *KEPT_ROOTS])
    assert unreached == [], f"unreached definitions: {unreached}"


def test_no_kept_root_is_reached_from_the_cli():
    # a root that the command line wires in comes off the list
    graph = _graph()
    from_cli = set(graph) - set(_unreached(graph, ["cli.main"]))
    assert sorted(from_cli & set(KEPT_ROOTS)) == [], (
        "kept roots the CLI now reaches")


def test_every_c_entry_is_registered_and_reached():
    # the rule above, carried into _walk.c: each function it exports has a
    # row in _native._ENTRIES and each row an export, and each is called by
    # a body of _native that the CLI or a kept root reaches, so no entry
    # outlives its last caller in src/opweb
    from opweb import _native
    source = (PACKAGE / "_walk.c").read_text(encoding="utf-8")
    exported = re.findall(r"^(?!static\b)[A-Za-z_][\w \t*]*?\b(\w+)\(",
                          source, re.M)
    assert sorted(exported) == sorted(_native._ENTRIES)
    graph = _graph()
    reached = set(graph) - set(_unreached(graph, ["cli.main", *KEPT_ROOTS]))
    called = set()
    for node in _modules()["_native"].body:
        if (isinstance(node, ast.FunctionDef)
                and f"_native.{node.name}" in reached):
            called.update(sub.func.attr for sub in ast.walk(node)
                          if isinstance(sub, ast.Call)
                          and isinstance(sub.func, ast.Attribute))
    assert sorted(set(_native._ENTRIES) - called) == [], (
        "entries no reached body calls")


def _defaulted(fn):
    """A function's parameter names in positional order, and the names of
    those with a default."""
    a = fn.args
    positional = [arg.arg for arg in a.posonlyargs + a.args]
    names = positional[len(positional) - len(a.defaults):]
    names += [arg.arg for arg, d in zip(a.kwonlyargs, a.kw_defaults)
              if d is not None]
    return positional, names


def _unpassed_defaults():
    """``module.function(param)`` for each defaulted parameter of a
    module-level function that no call in the package passes."""
    trees = _modules()
    functions = {(mod, node.name): node for mod, tree in trees.items()
                 for node in tree.body if isinstance(node, ast.FunctionDef)}
    passed = set()
    for mod, tree in trees.items():
        names, aliases = _imports(tree, trees)
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            f = call.func
            if isinstance(f, ast.Name):
                target = ((mod, f.id) if (mod, f.id) in functions
                          else names.get(f.id))
            elif (isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name)
                  and f.value.id in aliases):
                target = (aliases[f.value.id], f.attr)
            else:
                continue
            if target not in functions:
                continue
            positional, _ = _defaulted(functions[target])
            passed.update((target, name)
                          for name in positional[:len(call.args)])
            passed.update((target, kw.arg) for kw in call.keywords)
    unpassed = set()
    for (mod, name), fn in functions.items():
        unpassed.update(f"{mod}.{name}({param})" for param in _defaulted(fn)[1]
                        if ((mod, name), param) not in passed)
    return unpassed


def test_every_defaulted_parameter_is_passed_or_kept():
    # a parameter that only ever takes its default is a constant; a kept one
    # that a call now passes comes off the list
    unpassed, kept = _unpassed_defaults(), set(KEPT_DEFAULTS)
    assert sorted(unpassed - kept) == [], "defaults that no call passes"
    assert sorted(kept - unpassed) == [], "kept defaults now passed or gone"
