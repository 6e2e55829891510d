"""cavitylab never loads scipy: not on the command line, not in the peak
detection behind the finesse and drift pipelines. The README commands do
not load ``numpy.ma`` either, which ``np.median`` imports on its first
call. Every name the package and its layers export in ``__all__`` exists,
every module-level private name is read somewhere in the package, every
public name is reached from a command or an acceptance criterion, and the
model layer imports no other layer.

Each run check uses a fresh interpreter, because the test process itself has
long since imported scipy for its oracle tests.
"""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from cavitylab import cli, synthlab

# the layers whose exports the benchmark's tracer wraps by name
_LAYERS = ("cli", "optics", "photophysics", "cqed", "fitkit", "models", "dataio", "synthlab")

_SRC = str(Path(cli.__file__).resolve().parents[1])

_README_COMMANDS = [
    "dispersion --lambda-exc 533.3 --lambda-det 618.5 --roc 24 "
    "--l-min 2 --l-max 6 --tol-nm 25",
    "fit --preset g2_dip --seed 7",
    "fit --input {csv} --schema histogram --model exponential_decay",
    "purcell-budget --tau0 21.7 --tau-p 12.2 --qe 0.8 --dw 0.56 --branching 0.8 "
    "--lambda-c 618.5 --l-eff 3.75 --roc 24 --q-ideal 56400 --kappa-exp 160",
]

# the commands print their own lines; this prints, last, each command's exit
# code and the scipy and numpy.ma modules loaded after it
_RUN_COMMANDS = """
import json, sys
from cavitylab import cli
seen = []
for argv in json.loads(sys.argv[1]):
    code = cli.main(argv)
    seen.append([code, sorted(m for m in sys.modules if m.split(".")[0] == "scipy"
                              or m.split(".")[:2] == ["numpy", "ma"])])
print(json.dumps(seen))
"""

# prints whether the finesse is in band, the number of drift frames tracked
# and the scipy modules loaded
_PEAK_PIPELINES = """
import sys
from cavitylab import optics, synthlab
finesse, _ = optics.finesse_from_scan(synthlab.generate_scan_pair(seed=41))
series = optics.drift_series(synthlab.generate_drift_map(seed=41)[0], l_eff_um=3.7)
print(abs(finesse - 4600.0) < 500.0, len(series), sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def _python(code, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
    env.pop("CAVITYLAB_OUTDIR", None)
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_readme_commands_load_no_scipy(tmp_path):
    ds = synthlab.generate(synthlab.preset("lifetime_4k", seed=8))
    csv_path, _ = synthlab.write_dataset(ds, tmp_path / "decay.csv")
    argvs = [
        command.format(csv=csv_path).split() + ["--out", str(tmp_path / f"out{i}")]
        for i, command in enumerate(_README_COMMANDS)
    ]
    seen = json.loads(_python(_RUN_COMMANDS, json.dumps(argvs))[-1])
    assert seen == [[0, []]] * len(argvs)


def test_package_never_imports_scipy():
    sources = sorted(Path(cli.__file__).parent.rglob("*.py"))
    assert len(sources) >= 10
    for source in sources:
        assert not re.search(r"^\s*(import|from)\s+scipy\b", source.read_text(), re.M), source
    assert _python(_PEAK_PIPELINES) == ["True 120 []"]


def test_cli_import_loads_no_thread_machinery():
    # the WLED generator imports its helper thread's executor when called,
    # so a command's start does not pay for threading or concurrent.futures
    code = ("import sys; had = 'threading' in sys.modules; import cavitylab.cli; "
            "print(had or 'threading' not in sys.modules, 'concurrent.futures' in sys.modules)")
    assert _python(code) == ["True False"]


@pytest.mark.parametrize("name", ["cavitylab", *(f"cavitylab.{m}" for m in _LAYERS)])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert module.__all__
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == [], f"{name}.__all__ names {missing}"


def _module_trees():
    return {path.stem: ast.parse(path.read_text())
            for path in sorted(Path(cli.__file__).parent.glob("*.py"))}


def _definitions(tree):
    """Module-level functions, classes and assigned names of a module."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found.update((t.id, node) for t in targets if isinstance(t, ast.Name))
    return found


def test_every_private_module_name_is_used():
    # a module-level private function, class or constant that nothing in the
    # package reads is dead code
    trees = _module_trees()
    used = {node.id for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    used |= {node.attr for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)}
    defined = {(module, name) for module, tree in trees.items() for name in _definitions(tree)
               if name.startswith("_") and not name.startswith("__")}
    assert len(defined) > 20
    assert sorted(d for d in defined if d[1] not in used) == []


# public names that no command and no acceptance criterion reaches yet, each
# kept for the ROADMAP direction that will wire it in (or for the reason
# given); an entry that becomes reachable must leave, so the list only shrinks
_UNREACHED_PUBLIC = {
    ("cqed", "CouplingRates"): "direction 12: the regime transition from measured rates",
    ("cqed", "regime_classify"): "direction 12: the regime transition from measured rates",
    ("cqed", "bad_emitter_purcell"): "direction 12: the regime transition from measured rates",
    ("cqed", "length_jitter_nm"): "direction 13: a budget step that explains kappa_exp",
    ("optics", "effective_length_from_spectrum"): "direction 8: a characterize command",
    ("optics", "effective_length_from_adjacent_modes"): "direction 8: a characterize command",
    ("photophysics", "debye_waller_estimate"): "direction 11: epsilon from a spectrum",
    ("photophysics", "decay_rate_extrapolation"): "direction 11: tau at zero power",
    ("optics", "detect_peaks"): "the documented find_peaks equivalent CI runs scipy-free",
}


def _package_imports(tree):
    """Local name -> (module, name) of each cavitylab import; ``from . import
    x`` imports the module x, which is (x, None)."""
    found = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level:
            module = node.module
        elif node.module == "cavitylab":
            module = "__init__"
        elif node.module.startswith("cavitylab."):
            module = node.module.partition(".")[2]
        else:
            continue
        for alias in node.names:
            local = alias.asname or alias.name
            found[local] = (module, alias.name) if module else (alias.name, None)
    return found


def test_every_public_name_is_reached():
    # a public name that no command (the module-level functions of cli) and
    # no acceptance criterion (tests/test_acceptance.py) reaches, through the
    # package's own references, is dead code; synthlab's generators and
    # oracles are test tools, and the allowlist above names each exception
    trees = _module_trees()
    defs = {module: _definitions(tree) for module, tree in trees.items()}
    imports = {module: _package_imports(tree) for module, tree in trees.items()}
    # the acceptance tests read the package; their own names define nothing
    acceptance = ast.parse((Path(__file__).parent / "test_acceptance.py").read_text())
    defs["test_acceptance"], imports["test_acceptance"] = {}, _package_imports(acceptance)

    def resolve(module, name):
        # the (module, name) that defines a name read in a module, through
        # imports and re-exports; (x, None) is the module x itself
        while name is not None and name not in defs[module]:
            if name not in imports[module]:
                return None
            module, name = imports[module][name]
        return module, name

    def referenced(node, module):
        def target(expr):
            if isinstance(expr, ast.Name):
                return resolve(module, expr.id)
            if isinstance(expr, ast.Attribute):
                base = target(expr.value)
                if base and base[1] is None:
                    return resolve(base[0], expr.attr)
            return None

        found = {target(sub) for sub in ast.walk(node)
                 if isinstance(sub, (ast.Name, ast.Attribute))}
        return {key for key in found if key and key[1] is not None}

    def reach(roots):
        reached, todo = set(), list(roots)
        while todo:
            key = todo.pop()
            if key not in reached:
                reached.add(key)
                todo.extend(referenced(defs[key[0]][key[1]], key[0]))
        return reached

    roots = {("cli", name) for name, node in defs["cli"].items()
             if isinstance(node, ast.FunctionDef)}
    roots |= referenced(acceptance, "test_acceptance")
    allowed = set(_UNREACHED_PUBLIC)
    assert all(name in defs[module] for module, name in allowed)
    # an allowlisted name that a command or criterion now reaches must leave
    assert sorted(allowed & reach(roots)) == []
    # allowlisted names count as roots: what only they read is kept with them
    public = {(module, name) for module, names in defs.items() for name in names
              if not name.startswith("_") and module != "synthlab"}
    assert len(public) > 50
    assert sorted(public - reach(roots | allowed)) == []


def test_models_imports_only_errors():
    # the model layer sits under everything else: it imports no other layer
    tree = _module_trees()["models"]
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            imported |= {node.module} if node.module else {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module.startswith("cavitylab"):
            imported.add(node.module)
        elif isinstance(node, ast.Import):
            imported |= {a.name for a in node.names if a.name.startswith("cavitylab")}
    assert imported == {"errors"}
