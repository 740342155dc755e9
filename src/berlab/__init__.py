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
    run_campaign,
)
from .numlin import (
    apply_spectral_function,
    hermitian_eig,
    matrix_abs,
    operator_norm,
    polar_decompose,
    re_rotation,
)
from .rkhs import (
    KernelFamily,
    KernelSpace,
    ber_via_rotations,
    berezin_number,
    berezin_symbols,
    build_space,
    identity_space,
)
from .theorems import Certificate, check_block_runs, check_scalar, check_single

__all__ = [
    "BlockOperator", "CampaignConfig", "Certificate", "KernelFamily",
    "KernelSpace", "Report", "aluthge_general", "aluthge_offdiag",
    "apply_spectral_function", "assemble", "ber_block", "ber_via_rotations",
    "berezin_number", "berezin_symbols", "build_space", "check_block_runs",
    "check_scalar", "check_single", "derive_trial_seed", "explore",
    "hermitian_eig", "identity_space", "matrix_abs", "offdiag_block",
    "operator_norm", "polar_decompose", "re_rotation", "run_campaign",
]
