"""Variational bounds for effective elastic moduli of densely packed
stiff-inclusion composites, with the gap-singular field machinery needed to
evaluate them."""

from .elasticity import (
    DerivedConstants,
    LameMaterial,
    Matrix2,
    SymTensor2,
    compliance_contract,
    compliance_energy,
    derived_constants,
    energy_density,
    stress_from_gradient,
)
from .geometry import (
    Curve,
    Disk,
    Ellipse,
    GapGeometry,
    InclusionShape,
    PathSegment,
    Region,
    chord_halfheight,
    gap_halfwidth,
    gap_halfwidth_deriv,
    inclusion_boundary,
    make_gap_geometry,
    rect_classify,
    rect_matrix_area,
    region_classify,
)
from .kernels import (
    KERNEL_NAMES,
    POLE_EXCLUSION_RADIUS,
    KernelContext,
    kelvin_matrix,
    kernel_displacement,
    kernel_gradient,
    singular_displacement,
    singular_stress,
)
from .quadrature import (
    IntegralResult,
    QuadratureError,
    cumulative_line_table,
    integrate_cell,
    integrate_path,
)
from .bounds import (
    REL_TOL_CELL,
    REL_TOL_PATH,
    BoundResult,
    Diagnostics,
    DualStress,
    KellerProfile,
    build_dual_stress,
    dual_lower,
    dual_lower_loads,
    energy_identity_check,
    flux_identity_check,
    m_constant,
    pair_boundary_integral,
    primal_upper,
)
from .pipeline import (
    CSV_HEADER,
    ConfigError,
    RunConfig,
    SeriesFit,
    SweepRow,
    VerificationError,
    compute_sweep_row,
    compute_width_rows,
    effective_moduli,
    fk_asymptotic,
    parse_config,
    rows_to_csv,
    run_verify,
    sweep_and_fit,
    write_csv,
)

__version__ = "0.1.0"
