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


def test_import_leaves_scipy_stats_unloaded():
    # importing scipy.stats costs more than the rest of `import dynstack`;
    # auc and the paired t-test do without it
    src = str(Path(dynstack.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = (
        "import sys, dynstack\n"
        "from dynstack.metrics import paired_comparison\n"
        "from dynstack.simulation import auc\n"
        "auc([0.1, 0.4, 0.4, 0.9], [0, 1, 0, 1])\n"
        "paired_comparison([0.8, 0.9, 0.7], [0.7, 0.7, 0.8])\n"
        "print('scipy.stats' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


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
