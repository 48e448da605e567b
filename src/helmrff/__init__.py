"""Learning dissipative Hamiltonian vector fields from small noisy datasets.

The learned field is the sum of a symplectic part and a dissipative gradient
part, each represented by random Fourier features of an odd matrix-valued
kernel and fitted in closed form.
"""

from .features import (
    GAUSSIAN_SEPARABLE,
    ODD_CURL_FREE,
    ODD_SYMPLECTIC,
    FeatureBasis,
    feature_design,
    sample_basis,
    split_seed,
)
from .kernels import symplectic_matrix
from .regression import (
    BaselineModel,
    Dataset,
    ExactKernelModel,
    HelmholtzModel,
    Hyperparameters,
    fit_baseline,
    fit_exact_kernel,
    fit_helmholtz,
)
from .systems import (
    NoiseSpec,
    SystemSpec,
    Trajectory,
    damped_pendulum,
    generate_dataset,
    integrate_rk4,
    mass_spring_damper,
)
from .evaluation import (
    SearchSpace,
    cross_validate,
    default_search_space,
    make_test_set,
    stream_grid,
)

__version__ = "0.1.0"
