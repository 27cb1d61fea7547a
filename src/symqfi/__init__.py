"""Quantum Fisher information for symmetric qubit probes under collective phase noise."""

from .collective_basis import (
    BipartiteSymmetricBasis,
    Generator,
    GeneratorLabel,
    ProductState,
    PureState,
    SymmetricBasis,
    dicke_state,
    generator,
    ghz_state,
    plus_product_state,
    rotate_y,
    tensor_bipartite,
    wigner_d_matrix,
)
from .dephasing import (
    NoiseParams,
    dephasing_kernel,
    phase_variance_c,
    spin_echo_weights_variance,
)
from .qfi import max_qfi_bound, spectral_qfi
from .schemes import (
    ProbeFamily,
    ProbeSpec,
    ScanResult,
    SchemeKind,
    SchemeSpec,
    build_probe,
    optimize_rotation,
    scan,
    scheme_qfi,
)
from .steady_forms import (
    SplitChoice,
    SplitOptimum,
    block_probabilities,
    bsd_steady_qfi,
    dfs_piecewise_qfi,
    ghz_bipartite_steady_qfi,
    ghz_qfi_analytic,
    optimize_bsd_split,
    product_steady_qfi,
)

__version__ = "0.1.0"
