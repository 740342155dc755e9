"""berlab: Berezin-number inequality verification on finite kernel models."""

# set before the submodule imports: harness stamps it on every report
__version__ = "0.1.0"

from .blockops import (
    BlockOperator,
    aluthge_general,
    aluthge_offdiag,
    assemble,
    ber_block,
    offdiag_block,
)
from .harness import (
    CampaignConfig,
    Report,
    derive_trial_seed,
    explore,
    generate_operator,
    run_campaign,
)
from .numlin import (
    HermitianEigen,
    PolarParts,
    apply_spectral_function,
    hermitian_eig,
    matrix_abs,
    operator_norm,
    polar_decompose,
    re_rotation,
)
from .report import emit_report
from .rkhs import (
    KernelFamily,
    KernelSpace,
    ber_via_rotations,
    berezin_number,
    berezin_peak,
    berezin_symbol,
    build_space,
    identity_space,
    normalized_kernel,
)
from .theorems import Certificate, check_block, check_scalar, check_single

__all__ = [
    "BlockOperator", "CampaignConfig", "Certificate", "HermitianEigen",
    "KernelFamily", "KernelSpace", "PolarParts", "Report",
    "aluthge_general", "aluthge_offdiag", "apply_spectral_function",
    "assemble", "ber_block", "ber_via_rotations", "berezin_number",
    "berezin_peak", "berezin_symbol", "build_space", "check_block",
    "check_scalar", "check_single", "derive_trial_seed", "emit_report",
    "explore", "generate_operator", "hermitian_eig", "identity_space",
    "matrix_abs", "normalized_kernel", "offdiag_block", "operator_norm",
    "polar_decompose", "re_rotation", "run_campaign",
]
