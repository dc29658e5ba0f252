"""Names that other code reaches in ``amcmc``: each module's ``__all__``, and
every attribute the benchmark (``perfbench/``) wraps, hooks or reads.

A traced benchmark round replaces module attributes by name, so a name
removed from ``src/`` breaks the benchmark without failing any sampler
test.  These tests read the benchmark's files with ``ast``; they run none
of it."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import amcmc

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
BENCHMARK_FILES = ("workloads.py", "cli_launch.py")

# the package's public names, which stay stable unless a change says why
PUBLIC = [
    "BoundInputs",
    "ErgodicityParams",
    "clamp_tv",
    "l2_bound_approx",
    "l2_bound_exact",
    "mixing_time_bound",
    "stationary_bias_bound",
    "tv_bound_approx",
    "tv_bound_exact",
    "variance_factor",
    "CompminimaxProblem",
    "SpeedupFn",
    "curve_epsilon_vs_budget",
    "epsilon_compminimax",
    "speedup_eval",
    "SeededRng",
    "__version__",
]

MODULES = ["amcmc", *(f"amcmc.{m.name}" for m in pkgutil.iter_modules(amcmc.__path__))]


def test_package_all_is_unchanged():
    assert amcmc.__all__ == PUBLIC


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_exists(name):
    module = importlib.import_module(name)
    names = getattr(module, "__all__", [])
    assert len(set(names)) == len(names), f"{name}.__all__ repeats a name"
    assert [n for n in names if not hasattr(module, n)] == []


# ---------------------------------------------------------------------------
# names the benchmark reaches
# ---------------------------------------------------------------------------


def _chain(node):
    """["a", "b", "c"] for the expression a.b.c, None for anything else."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return [node.id, *reversed(parts)] if isinstance(node, ast.Name) else None


def _aliases(tree):
    """Local name -> (module, attributes) for each ``amcmc`` import of the
    file: ``import amcmc.x as y`` binds y to (amcmc.x, []), ``import
    amcmc.x`` binds amcmc to (amcmc, []), ``from amcmc.x import y`` binds y
    to (amcmc.x, [y]).  A name bound two ways cannot be resolved."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a for a in node.names if a.name.split(".")[0] == "amcmc"]
            for a in names:
                importlib.import_module(a.name)  # so that amcmc.x resolves
            pairs = [(a.asname, (a.name, [])) if a.asname else ("amcmc", ("amcmc", [])) for a in names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and (node.module or "").split(".")[0] == "amcmc":
            __import__(node.module, fromlist=[a.name for a in node.names])  # as the import does
            pairs = [(a.asname or a.name, (node.module, [a.name])) for a in node.names]
        else:
            continue
        for local, target in pairs:
            assert bound.setdefault(local, target) == target, f"{local} is bound to two modules"
    return bound


def _loop_names(tree):
    """Call node -> the string names of the ``for attr in ("a", "b")`` loop
    whose variable is that call's second argument."""
    names = {}
    for loop in ast.walk(tree):
        if not (isinstance(loop, ast.For) and isinstance(loop.target, ast.Name)
                and isinstance(loop.iter, (ast.Tuple, ast.List))):
            continue
        values = [e.value for e in loop.iter.elts if isinstance(e, ast.Constant)]
        for node in ast.walk(loop):
            if isinstance(node, ast.Call) and len(node.args) > 1 and isinstance(node.args[1], ast.Name) \
                    and node.args[1].id == loop.target.id:
                names[node] = values
    return names


def _is_replacement(call):
    """``tracer.wrap(owner, "name", ...)``, ``tracer.patch(...)`` or
    ``_hook(owner, "name", ...)``."""
    f = call.func
    return (isinstance(f, ast.Attribute) and f.attr in ("wrap", "patch")) or (
        isinstance(f, ast.Name) and f.id == "_hook"
    )


def _reached(path):
    """(dotted owner chain, attribute) pairs the file reaches in amcmc: every
    attribute chain on an amcmc import, the owner and name of every wrap,
    patch and hook, and every name imported from amcmc."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    aliases = _aliases(tree)
    loops = _loop_names(tree)
    pairs = set()
    for local, (module, attrs) in aliases.items():
        if attrs:
            pairs.add((module, attrs[0]))
    for node in ast.walk(tree):
        chain = _chain(node) if isinstance(node, ast.Attribute) else None
        if chain and chain[0] in aliases:
            pairs.add((".".join(chain[:-1]), chain[-1]))
        if isinstance(node, ast.Call) and _is_replacement(node):
            owner = _chain(node.args[0])
            assert owner and owner[0] in aliases, f"{path.name}:{node.lineno}: owner is not an amcmc name"
            target = node.args[1]
            names = [target.value] if isinstance(target, ast.Constant) else loops.get(node)
            assert names, f"{path.name}:{node.lineno}: the replaced name is not a literal or loop string"
            pairs.update((".".join(owner), name) for name in names)
    return aliases, sorted(pairs)


def _resolve(dotted, aliases):
    head, *rest = dotted.split(".")
    if head in aliases:
        module, attrs = aliases[head]
        obj = importlib.import_module(module)
        rest = [*attrs, *rest]
    else:
        obj = importlib.import_module(dotted)
        rest = []
    for attr in rest:
        obj = getattr(obj, attr)
    return obj


PARSED = {name: _reached(PERFBENCH / name) for name in BENCHMARK_FILES}
REACHED = [(name, owner, attr) for name, (_, pairs) in PARSED.items() for owner, attr in pairs]


def test_the_benchmark_reaches_the_layers_it_times():
    """The parse sees the wraps a traced round depends on, including those
    named through a ``for attr in (...)`` loop."""
    got = {(name, f"{owner}.{attr}") for name, owner, attr in REACHED}
    for name, dotted in [
        ("workloads.py", "mix.latent_class_probs"),
        ("workloads.py", "gp.GPSampler.run"),
        ("workloads.py", "cli.pg.run_chain"),
        ("workloads.py", "cli.gp.marginal_loglik"),
        ("workloads.py", "fc.simulate_path"),
        ("cli_launch.py", "cmx.tv_bound_exact"),
        ("cli_launch.py", "diag.phi_max"),
        ("cli_launch.py", "bounds.variance_factor"),
        ("cli_launch.py", "amcmc.cli.main"),
    ]:
        assert (name, dotted) in got


@pytest.mark.parametrize("name,owner,attr", REACHED, ids=[f"{n}:{o}.{a}" for n, o, a in REACHED])
def test_every_name_the_benchmark_reaches_exists(name, owner, attr):
    assert hasattr(_resolve(owner, PARSED[name][0]), attr), f"{name} reaches {owner}.{attr}"
