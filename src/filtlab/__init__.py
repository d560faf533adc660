"""filtlab: finite models of decreasing partition sequences.

Build finite metric-measure spaces, iterate the Kantorovich semimetric along a
partition chain, measure how the mean distance decays, bracket epsilon-entropy,
and run walk-over-scenery simulations whose distances are exact tree-matching
minima.  See the demos/ scripts for narrative tours of each capability.
"""

__version__ = "0.1.0"

from .entropy import (
    EntropyBounds,
    ScalingFamily,
    epsilon_entropy_bounds,
    epsilon_entropy_oracle,
    exponential_growth_test,
    scaled_entropy_eval,
    scaling_exponent_fit,
)
from .errors import (
    DegenerateBlockError,
    DomainError,
    FiltlabError,
    InsufficientDataError,
    SizeCapError,
    StructuralError,
    UnsupportedGroupError,
)
from .filtration import (
    LevelSemimetric,
    StandardnessProfile,
    cylinder_hamming,
    dyadic_bernoulli_chain,
    iterate_semimetric,
    mean_distance,
    standardness_profile,
)
from .groups import (
    DictScenery,
    GroupElement,
    GroupSpec,
    MeetingResult,
    Scenery,
    generator,
    identity,
    inverse,
    meeting_diagnostic,
    multiply,
    sample_increments,
    string_to_symbols,
    symbol_element,
    symbols_to_string,
    weighted_rank,
    word_norm,
    word_norm_bounds,
)
from .mmspace import (
    DiscreteMeasure,
    Partition,
    PartitionChain,
    SemimetricMatrix,
    block_masses,
    conditional_measure,
    partition_entropy,
    partition_rokhlin_distance,
    validate_semimetric,
)
from .transport import Coupling, kantorovich, kantorovich_bruteforce
from .treewalk import (
    OrbitPartition,
    TreeLeafSystem,
    exponential_entropy_estimate,
    iid_word_measure,
    orbit_partition,
    tree_distance,
    tree_distance_bruteforce,
)
from .walksim import (
    BallMeasureEstimate,
    MeanDistanceEstimate,
    WalkDistanceEngine,
    WalkPoint,
    ball_measure_estimate,
    ball_measure_profile,
    hamming_base,
    identity_matching_average,
    leaf_observations,
    mean_distance_profile,
    pair_distance,
    sample_distance_matrix,
    walk_point,
    wilson_interval,
)
