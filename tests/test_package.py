import ast
import dataclasses
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import dynstack


def _run_fresh(code: str) -> str:
    """Run ``code`` in a new interpreter that imports this checkout's
    dynstack; returns the last line it prints."""
    src = str(Path(dynstack.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.strip().splitlines()[-1]


def test_import_leaves_scipy_stats_unloaded():
    # importing scipy.stats costs more than the rest of `import dynstack`;
    # auc and the paired t-test do without it
    code = (
        "import sys, dynstack\n"
        "from dynstack.metrics import paired_comparison\n"
        "from dynstack.simulation import auc\n"
        "auc([0.1, 0.4, 0.4, 0.9], [0, 1, 0, 1])\n"
        "paired_comparison([0.8, 0.9, 0.7], [0.7, 0.7, 0.8])\n"
        "print('scipy.stats' in sys.modules)"
    )
    assert _run_fresh(code) == "False"


# modules that only graph, naive Bayes, p-value or multi-process code needs
FEATURE_MODULES = ("scipy.sparse", "scipy.special", "concurrent.futures.process")


def test_level1_path_leaves_feature_modules_unloaded(tmp_path):
    # the simulation study and stack-fit / stack-predict build no graph: they
    # run without scipy.sparse, scipy.special or a process pool in memory
    code = f"""
import sys
from pathlib import Path
import dynstack
from dynstack.cli import main
from dynstack.simulation import generate_case, run_simulation
from dynstack.stacking import write_level1

run_simulation(cases=(3,), n=200, reps=1, folds=3)
out = Path({str(tmp_path)!r})
write_level1(out / "level1.csv", generate_case(3, 300, 5).to_level1())
assert main(["stack-fit", "--level1", str(out / "level1.csv"), "--folds", "3",
             "--out", str(out / "fit")]) == 0
assert main(["stack-predict", "--model", str(out / "fit" / "model.txt"),
             "--data", str(out / "level1.csv"), "--out", str(out / "pred")]) == 0
print(sorted(m for m in sys.modules
             if any(m == f or m.startswith(f + ".") for f in {FEATURE_MODULES!r})))
"""
    assert _run_fresh(code) == "[]"
    assert (tmp_path / "pred" / "predictions.csv").exists()


# graph, naive Bayes and p-value calls whose scipy imports run inside them
DEFERRED_CALLS = """
from dynstack.graph import largest_connected_component, parse_edge_list
from dynstack.metrics import paired_comparison
from dynstack.naive_bayes import fit_nb, parse_feature_file, predict_nb

graph = parse_edge_list(["a b", "b c 2.0", "c a", "d e", "c f 0.5", "g d"])
lcc = largest_connected_component(graph)
features = parse_feature_file(
    ["a w1:1 w2:2", "b w2:1.5", "c w1:3 w3:1", "f w3:2 w1:0.25"], lcc.node_ids
)
model = fit_nb(features.matrix, [0, 1, 0, 1], 2)
probs = predict_nb(model, features.matrix)
test = paired_comparison([0.8, 0.9, 0.7, 0.85], [0.7, 0.7, 0.8, 0.75])
result = (
    lcc.node_ids,
    [a.tobytes().hex() for a in (lcc._indptr, lcc._indices, lcc._weights)],
    [a.tobytes().hex() for a in (features.matrix.data, features.matrix.indices)],
    [a.tobytes().hex() for a in (model.log_priors, model.log_likelihoods, probs)],
    [test.mean_diff.hex(), test.p_value.hex()],
)
"""


def test_deferred_scipy_imports_give_in_process_values():
    # first thing in a fresh interpreter, each call imports what it needs
    # itself and returns the bits it returns here
    code = (
        "import sys\n"
        "import dynstack\n"
        "assert not {'scipy.sparse', 'scipy.special'} & set(sys.modules)\n"
        f"{DEFERRED_CALLS}\n"
        "print(repr(result))"
    )
    scope = {}
    exec(DEFERRED_CALLS, scope)
    assert ast.literal_eval(_run_fresh(code)) == scope["result"]
    assert scope["result"][0] == ["a", "b", "c", "f"]


@pytest.mark.parametrize(
    "module", ["dynstack"] + [f"dynstack.{m.name}" for m in pkgutil.iter_modules(dynstack.__path__)]
)
def test_every_exported_name_resolves(module):
    # a stale entry in __all__ breaks `from module import *`
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", []) if not hasattr(mod, name)]
    assert missing == []


PACKAGE_MODULES = ("graph", "metrics", "naive_bayes", "relational", "simulation", "splines", "stacking")

# what ``dynstack`` exported when its __init__ listed the names by hand
HAND_LISTED = """
    Graph GraphParseError attach_labels closeness_centrality degree
    largest_connected_component parse_edge_list split_nodes accuracy
    binned_accuracy paired_comparison NaiveBayesModel fit_nb parse_feature_file
    predict_nb IcaResult ica_run METHODS auc generate_case run_simulation
    BSplineBasis assemble_block_penalty basis_matrix curvature_penalty make_basis
    ConvergenceError FitConfig Level1Data StackModel build_level1
    coefficient_curves default_basis fit_dynamic fit_static load_model predict
    read_level1 save_model select_lambda select_strength write_level1 __version__
""".split()


def test_package_exports_each_module_public_list():
    # each module's __all__ is the one list of its public names
    lists = [importlib.import_module(f"dynstack.{m}").__all__ for m in PACKAGE_MODULES]
    assert dynstack.__all__ == [name for names in lists for name in names] + ["__version__"]
    assert len(set(dynstack.__all__)) == len(dynstack.__all__)


def test_every_hand_listed_name_still_exported():
    assert [n for n in HAND_LISTED if n not in dynstack.__all__ or not hasattr(dynstack, n)] == []


def test_star_import_of_stacking_binds_default_basis():
    scope = {}
    exec("from dynstack.stacking import *", scope)
    assert scope["default_basis"] is dynstack.default_basis


def test_benchmark_tracer_bindings_resolve():
    # perfbench/tracing.py wraps functions at the module attributes their
    # callers look them up in; a binding that disappears (say, an import
    # that looks unused) makes the tracer fail to install. Read WRAPS
    # without importing perfbench, whose import reconfigures logging.
    tracing = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    tree = ast.parse(tracing.read_text())
    wraps = next(
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["WRAPS"]
    )
    pairs = [
        (owner.id, entry.elts[1].value) for entry in wraps.elts for owner in entry.elts[0].elts
    ]
    assert len(pairs) >= 20
    missing = [
        (mod, attr)
        for mod, attr in pairs
        if not hasattr(importlib.import_module(f"dynstack.{mod}"), attr)
    ]
    assert missing == []


def test_every_exported_name_has_a_caller():
    # a public function that only tests call is deleted, not kept: every name
    # in a module's __all__ is read by non-test code other than its definition
    root = Path(__file__).resolve().parents[1]
    sources = [p for p in (root / "src" / "dynstack").glob("*.py") if p.name != "__init__.py"]
    sources += [p for d in ("demos", "perfbench") for p in (root / d).rglob("*.py")]
    used = set()
    for path in sources:
        if "tests" in path.relative_to(root).parts:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = [
        f"{m.name}.{name}"
        for m in pkgutil.iter_modules(dynstack.__path__)
        for name in getattr(importlib.import_module(f"dynstack.{m.name}"), "__all__", [])
        if name not in used
    ]
    assert unused == []


# Settings that only tests set, kept for now: criterion 3 and the Newton tests
# tighten FitConfig.newton_tol, and FitConfig stays a class while
# perfbench/workloads.py builds one to pass to select_lambda and fit_dynamic.
SETTINGS_ONLY_TESTS_SET = {"stacking.FitConfig.newton_tol"}


def _settings(module):
    """``(qualified name, called name, position, keyword)`` of every defaulted
    field of an exported dataclass and every defaulted parameter of an exported
    function or public classmethod; keyword-only parameters have no position."""
    out, callables = [], []
    for export in getattr(module, "__all__", []):
        obj = getattr(module, export)
        if dataclasses.is_dataclass(obj):
            fields = [f for f in dataclasses.fields(obj) if f.init]
            out += [
                (f"{export}.{f.name}", export, k, f.name)
                for k, f in enumerate(fields)
                if f.default is not dataclasses.MISSING
                or f.default_factory is not dataclasses.MISSING
            ]
        elif inspect.isclass(obj):
            callables += [
                (f"{export}.{name}", name, m.__func__, 1)
                for name, m in vars(obj).items()
                if isinstance(m, classmethod) and not name.startswith("_")
            ]
        elif inspect.isfunction(obj):
            callables.append((export, export, obj, 0))
    for qualname, name, fn, skip in callables:  # skip = 1 drops ``cls``
        params = list(inspect.signature(fn).parameters.values())[skip:]
        out += [
            (f"{qualname}.{p.name}", name, k if p.kind is not p.KEYWORD_ONLY else None, p.name)
            for k, p in enumerate(params)
            if p.default is not p.empty
        ]
    return out


def test_every_setting_is_set_by_a_caller():
    # a defaulted parameter or field that no program passes is a setting only
    # tests use: it goes, and its value becomes a module constant
    root = Path(__file__).resolve().parents[1]
    sources = [p for p in (root / "src" / "dynstack").glob("*.py") if p.name != "__init__.py"]
    sources += [p for d in ("demos", "perfbench") for p in (root / d).rglob("*.py")]
    passed = set()  # (called name, position or keyword); "*" for a starred argument
    for path in sources:
        if "tests" in path.relative_to(root).parts:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                passed.update((name, k) for k in range(len(node.args)))
                passed.update((name, kw.arg) for kw in node.keywords)  # arg None: **kwargs
                if any(isinstance(a, ast.Starred) for a in node.args):
                    passed.add((name, "*"))
    modules = [f"dynstack.{m.name}" for m in pkgutil.iter_modules(dynstack.__path__)]
    unset = [
        f"{module.removeprefix('dynstack.')}.{qualname}"
        for module in modules
        for qualname, name, position, keyword in _settings(importlib.import_module(module))
        if not passed & {(name, position), (name, keyword), (name, "*"), (name, None)}
    ]
    assert sorted(set(unset) - SETTINGS_ONLY_TESTS_SET) == []
    assert SETTINGS_ONLY_TESTS_SET <= set(unset)  # an exemption no longer needed goes too


def test_one_newton_core_in_stacking():
    # every level-1 fit, quadratic penalty or lasso, runs one damped
    # proximal-Newton loop: one function reads the iteration cap
    path = Path(dynstack.__file__).resolve().parent / "stacking.py"
    readers = {
        fn.name
        for fn in ast.walk(ast.parse(path.read_text()))
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Name) and node.id == "MAX_NEWTON_ITER"
    }
    assert readers == {"_fit"}
