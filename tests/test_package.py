"""The package namespace: `import sgharm` loads no submodule, and each name
it exports loads its defining module on first access."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sgharm

# every name the package exports, by defining module: the names it bound when
# it imported all four modules at once
EXPORTS = {
    "exact": (
        "DIFFERENCE_CONE", "OUTER_CONE", "ConeSpec", "DegenerateEigenvalueError", "Expansion",
        "ExpansionVariant", "PlaneBasis", "QuadraticValue", "ScaledIntMat2", "ScaledIntMat3",
        "Vec3Q", "dominant_eigen", "edge_word_matrix", "expand", "expand_auto",
        "expansion_value", "generator_matrix", "in_value_triangle", "lyndon_words",
        "max_cyclic_run", "necklace_classes", "plane_trace", "restrict_to_plane",
        "transition_density", "word_product",
    ),
    "harmonic": (
        "ApproxPoint", "BoundaryTriple", "FORM_PRESETS", "GridCapExceeded", "HarmonicGrid",
        "LinearForm", "VECTOR_BOUNDARY", "check_harmonic", "curve_point", "curve_point_dyadic",
        "form_value", "harmonic_grid", "mirror", "subdivide", "truncated_curve_value",
        "vertex_value",
    ),
    "tangent": (
        "ConeError", "KernelVerdict", "ProjDir", "QuadDir", "Side", "SideError",
        "apply_projective", "chart_of", "direction_at", "direction_at_rational",
        "direction_vector", "kernel_test",
    ),
    "holder": (
        "DerivativeClass", "EstimateTrace", "HolderReport", "MIN_EXPONENT", "TableCapExceeded",
        "classify_curve", "classify_form", "estimate_at_bits", "exponent_bound",
        "exponent_estimate", "exponent_excludes_one", "generate_table", "holder_exponent",
        "infinite_derivative_guaranteed", "lyapunov_sample", "maxrun_experiment",
    ),
}
NAMES = {name for names in EXPORTS.values() for name in names}
SUBMODULES = {f"sgharm.{module}" for module in EXPORTS}


def _loaded_after(code):
    """The sgharm submodules and mpmath loaded by `code` in a fresh interpreter."""
    src = str(Path(sgharm.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    script = f"import json, sys\n{code}\nprint(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout)) & (SUBMODULES | {"sgharm.cli", "mpmath"})


def test_every_export_is_its_modules_object():
    for module, names in EXPORTS.items():
        defining = importlib.import_module(f"sgharm.{module}")
        for name in names:
            assert getattr(sgharm, name) is getattr(defining, name), name
            # stored once resolved, so later lookups skip __getattr__
            assert vars(sgharm)[name] is getattr(defining, name), name


def test_star_import_binds_the_exports_and_the_submodules():
    namespace = {}
    exec("from sgharm import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == NAMES | {module for module in EXPORTS}
    assert namespace["expand"] is sgharm.exact.expand


def test_dir_lists_every_export():
    listed = set(dir(sgharm))
    assert NAMES <= listed and "__version__" in listed
    assert {module for module in EXPORTS} <= listed


def test_unknown_names_raise():
    with pytest.raises(AttributeError, match="module 'sgharm' has no attribute 'no_such_name'"):
        sgharm.no_such_name
    # a submodule's private names are not exported
    with pytest.raises(AttributeError):
        sgharm._rational_period
    assert "no_such_name" not in vars(sgharm)
    with pytest.raises(ImportError):
        exec("from sgharm import no_such_name", {})


def test_import_loads_no_submodule():
    assert _loaded_after("import sgharm") == set()
    # a name loads its own module and what that module imports, nothing else
    assert _loaded_after("import sgharm; sgharm.expand") == {"sgharm.exact"}
    assert _loaded_after("import sgharm; sgharm.curve_point") == {"sgharm.exact",
                                                                  "sgharm.harmonic"}
    assert _loaded_after("import sgharm; sgharm.direction_at") == {"sgharm.exact",
                                                                   "sgharm.tangent"}
    assert _loaded_after("import sgharm; sgharm.holder_exponent") == {"sgharm.exact",
                                                                      "sgharm.holder"}
