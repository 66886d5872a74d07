"""Step-sum symmetry analysis of the partial sums of n**(-s).

Public surface: step geometry and partial sums (`steps`), the
symmetry frame with pendant center P(s) and factor Q(s) (`symmetry`),
three evaluation routes plus the reference oracle (`evaluators`), Gram
points and critical-line zeros (`zeros`), and figure-data exporters with
a CLI (`export`, `cli`).
"""

from .errors import (
    ConvergenceError,
    DomainError,
    ResourceGuardError,
    ToleranceError,
)
from .steps import (
    Argument,
    angle_diffs,
    partial_sum,
    reduced_phase,
    step_term,
)
from .symmetry import (
    ConjugateRegion,
    PredictedSum,
    SymmetryFrame,
    big_q,
    center_point,
    conj_region,
    conj_sum_direct,
    conj_sum_predicted,
    frame_of,
    jacobi_g,
    pendant_offset,
    rs_theta,
    rs_theta_mod,
)
from .evaluators import (
    EvalResult,
    eval_em_paper,
    eval_reference,
    eval_symmetric,
    rs_remainder,
    rs_z,
    z_reference,
    zeta_on_line,
)
from .zeros import (
    ZeroRecord,
    find_zeros,
    gram_offsets,
    gram_point,
    histogram,
    refine_zero,
    scan_z_sign_changes,
    zero_count_main,
)
from .export import (
    export_conjugate,
    export_gram,
    export_histogram,
    export_limacon,
    export_loops,
    export_stepplot,
    export_surface,
    export_zeros,
    write_rows,
)
from .cli import main

__version__ = "1.0.0"

__all__ = [
    "Argument",
    "ConjugateRegion",
    "ConvergenceError",
    "DomainError",
    "EvalResult",
    "PredictedSum",
    "ResourceGuardError",
    "SymmetryFrame",
    "ToleranceError",
    "ZeroRecord",
    "angle_diffs",
    "big_q",
    "center_point",
    "conj_region",
    "conj_sum_direct",
    "conj_sum_predicted",
    "eval_em_paper",
    "eval_reference",
    "eval_symmetric",
    "export_conjugate",
    "export_gram",
    "export_histogram",
    "export_limacon",
    "export_loops",
    "export_stepplot",
    "export_surface",
    "export_zeros",
    "find_zeros",
    "frame_of",
    "gram_offsets",
    "gram_point",
    "histogram",
    "jacobi_g",
    "main",
    "partial_sum",
    "pendant_offset",
    "reduced_phase",
    "refine_zero",
    "rs_remainder",
    "rs_theta",
    "rs_theta_mod",
    "rs_z",
    "scan_z_sign_changes",
    "step_term",
    "write_rows",
    "z_reference",
    "zero_count_main",
    "zeta_on_line",
]
