"""Harmonic functions on the Sierpinski gasket: exact boundary evaluation,
tangent directions, and Holder exponent analysis.

`import sgharm` loads no submodule: each exported name loads its module on
first access (PEP 562) and is then an ordinary attribute of the package.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_EXPORTS = {name: module for module, names in (
    ("exact", """DIFFERENCE_CONE OUTER_CONE ConeSpec DegenerateEigenvalueError Expansion
        ExpansionVariant PlaneBasis QuadraticValue ScaledIntMat2 ScaledIntMat3 Vec3Q
        dominant_eigen edge_word_matrix expand expand_auto expansion_value generator_matrix
        in_value_triangle lyndon_words max_cyclic_run necklace_classes plane_trace
        restrict_to_plane transition_density word_product"""),
    ("harmonic", """ApproxPoint BoundaryTriple FORM_PRESETS GridCapExceeded HarmonicGrid
        LinearForm VECTOR_BOUNDARY check_harmonic curve_point curve_point_dyadic form_value
        harmonic_grid mirror subdivide truncated_curve_value vertex_value"""),
    ("tangent", """ConeError KernelVerdict ProjDir QuadDir Side SideError apply_projective
        chart_of direction_at direction_at_rational direction_vector kernel_test"""),
    ("holder", """DerivativeClass EstimateTrace HolderReport MIN_EXPONENT TableCapExceeded
        classify_curve classify_form estimate_at_bits exponent_bound exponent_estimate
        exponent_excludes_one generate_table holder_exponent infinite_derivative_guaranteed
        lyapunov_sample maxrun_experiment"""),
) for name in names.split()}

# a star import binds the submodules too, as when the package imported them all
__all__ = [*_EXPORTS, "exact", "harmonic", "tangent", "holder"]


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f"{__name__}.{module}"), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
