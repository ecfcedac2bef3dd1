"""The package's public names, pinned: adding or removing an export means
editing ``PUBLIC`` below, so every change to the surface shows in a diff.

The package imports a module the first time one of its names is read, so
the import graph is checked in fresh interpreters: what each import loads,
and that every name resolves to its module's own object."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import treeradon

SRC = Path(treeradon.__file__).resolve().parents[1]
WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"

PUBLIC = {
    # errors
    "CompletenessError", "DomainError", "FileFormatError", "GenerationError",
    "GeodesicError", "MeasureError", "OracleInconsistencyError",
    "PointLocationError", "RadonError", "SolverError", "TreeStructureError",
    # generate
    "SuiteConfig", "gen_measure", "gen_point", "gen_tree", "gen_vertex_function",
    "random_rational", "random_signed_rational",
    # geodesics
    "Cat0Comparison", "Geodesic", "check_cat0_triangle", "geodesic_through_flag",
    "midpoint", "path", "perpendicular", "points_aligned",
    # measures
    "Measure", "RadonSample", "dirac", "make_measure", "pushforward_projection",
    "second_moment", "supported_on",
    # radon
    "DoubleCountIdentity", "FlagTable", "ReconstructionResult", "VertexFunction",
    "double_count_check", "enumerate_flags", "flag_mass", "flag_table",
    "radon_forward", "radon_invert", "radon_oracle", "reconstruct_measure",
    "vertex_function",
    # transport
    "CycleViolation", "NonextendabilityWitness", "TransportPlan",
    "WassersteinGeodesic", "check_nonextendable", "dilate", "extend_from_dirac",
    "interpolate", "is_cyclically_monotone", "optimal_plan", "w2_squared",
    # tree
    "EdgeRecord", "Flag", "Subtree", "Tree", "TreePoint", "build_tree",
    "point_sort_key",
    # verify
    "DiracExtensionCheck", "PropertyResult", "SuiteReport", "ThalesCheck",
    "check_dirac_preserved_extension", "check_thales",
    "comparison_point_distance_sq", "run_suite", "w2_squared_enumerated",
    "w2_triangle_holds",
}


def test_every_export_resolves():
    for name in treeradon.__all__:
        assert getattr(treeradon, name) is not None, name


def test_no_export_is_private():
    assert [name for name in treeradon.__all__ if name.startswith("_")] == []


def test_exports_are_exactly_the_pinned_list():
    assert len(treeradon.__all__) == len(set(treeradon.__all__))
    assert set(treeradon.__all__) == PUBLIC


def fresh(code):
    """Run ``code`` in a new interpreter with the package's sources on the
    path, and return what it prints."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), check=False)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


LOADED = "import sys; print(sorted(m for m in sys.modules if m.startswith('treeradon.')))"


def workloads_imports():
    """The benchmark's imports of the package, as ``bench/workloads.py`` writes them."""
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    return "\n".join(ast.unparse(node) for node in tree.body
                     if isinstance(node, ast.ImportFrom)
                     and node.module.split(".")[0] == "treeradon")


def test_importing_the_package_loads_no_module():
    assert fresh("import treeradon\n" + LOADED) == "[]\n"


@pytest.mark.parametrize("imports", ["import treeradon.cli", "import treeradon.io",
                                     workloads_imports()],
                         ids=["cli", "io", "bench-workloads"])
def test_only_the_suite_loads_verify(imports):
    code = f"""{imports}
import sys, treeradon
print('treeradon.verify' in sys.modules)
treeradon.run_suite
print('treeradon.verify' in sys.modules)
"""
    assert fresh(code).split() == ["False", "True"]


@pytest.mark.parametrize("imports", ["import treeradon.cli", workloads_imports()],
                         ids=["cli", "bench-workloads"])
def test_only_drawing_loads_the_generator(imports):
    # the CLI's parser declares the generator's bounds without its defaults
    code = f"""{imports}
import sys, treeradon
print('treeradon.generate' in sys.modules)
treeradon.gen_tree
print('treeradon.generate' in sys.modules)
"""
    assert fresh(code).split() == ["False", "True"]


def test_every_export_is_its_modules_object():
    # e.g. treeradon.Tree is treeradon.tree.Tree, and the package keeps it
    code = f"""import sys, treeradon
wrong = []
for name in sorted({sorted(PUBLIC)!r}):
    value = getattr(treeradon, name)
    if (value is not getattr(sys.modules[value.__module__], name)
            or vars(treeradon)[name] is not value):
        wrong.append(name)
print(wrong)
"""
    assert fresh(code) == "[]\n"


def test_star_import_and_dir_list_the_exports():
    # dir() first: the star import binds every name in the package too
    code = """import treeradon
print(sorted(set(treeradon.__all__) - set(dir(treeradon))))
names = {}
exec("from treeradon import *", names)
print(sorted(name for name in names if name != "__builtins__"))
"""
    assert fresh(code).splitlines() == ["[]", str(sorted(PUBLIC))]


def test_an_unknown_name_raises_attribute_error():
    code = f"""import treeradon
try:
    treeradon.no_such_name
except AttributeError as exc:
    print(exc)
{LOADED}
"""
    assert fresh(code).splitlines() == ["module 'treeradon' has no attribute 'no_such_name'",
                                        "[]"]


# The exported classes that stay dataclasses, each for a reason its
# definition gives; every other record is a NamedTuple.
DATACLASSES = ["FlagTable", "Measure", "PropertyResult", "SuiteConfig", "SuiteReport",
               "VertexFunction"]


def test_only_the_pinned_exports_are_dataclasses():
    code = """import dataclasses, treeradon
print(sorted(name for name in treeradon.__all__
             if dataclasses.is_dataclass(getattr(treeradon, name))))
"""
    assert fresh(code) == f"{DATACLASSES}\n"


def test_the_cli_import_makes_three_dataclasses():
    # each dataclass writes and runs its methods' source at import
    code = """import dataclasses, inspect, sys, treeradon.cli
print(sorted(name for module in list(sys.modules) if module.startswith('treeradon')
             for name, value in vars(sys.modules[module]).items()
             if inspect.isclass(value) and value.__module__ == module
             and dataclasses.is_dataclass(value)))
"""
    assert fresh(code) == "['FlagTable', 'Measure', 'VertexFunction']\n"
