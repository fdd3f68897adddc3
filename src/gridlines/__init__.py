"""Exact point-line incidence statistics for A x A over a prime field.

Core objects: validated prime moduli and canonical field subsets, the
incidence histogram over all p**2 + p affine lines, exact moment sums
(including the collinear triple and quadruple counts), brute-force
oracles, product-representation support censuses, and a verifier for
every exact identity and explicit-constant bound, with ratio
diagnostics for the asymptotic ones.
"""

from .bounds import (
    ClassBoundCheck,
    DyadicRow,
    PropositionCheck,
    RatioDiagnostics,
    RegimeReport,
    VerificationReport,
    class_bound_check,
    expected_q,
    expected_t,
    lm_count,
    proposition_check,
    ratio_diagnostics,
    regime_decomposition,
    render_fraction,
    root_fraction,
    verify_histogram,
)
from .errors import (
    CapExceeded,
    DegenerateSet,
    DescriptorError,
    DuplicateElement,
    EvenCharacteristic,
    GridlinesError,
    InvalidDensity,
    InvalidParameter,
    LengthExceedsField,
    ModulusMismatch,
    NotPrime,
)
from .fieldsets import (
    FieldSubset,
    PrimeModulus,
    SetSpec,
    from_list,
    gen_ap,
    gen_bernoulli,
    gen_full_field,
    gen_gp,
    gen_interval,
    gen_paper_interval,
    gen_uniform,
    parse_set_descriptor,
    validate_prime,
)
from .harness import (
    ExperimentConfig,
    SweepResult,
    SweepRow,
    run_moments,
    run_support,
    run_sweep,
    run_verify,
    sweep_to_csv,
    sweep_to_json_dict,
)
from .incidence import (
    IncidenceHistogram,
    Line,
    MomentSet,
    Sloped,
    Vertical,
    all_lines,
    default_strategy,
    incidence_count,
    incidence_histogram,
    moments,
)
from .oracle import (
    Point,
    algebraic_triple_count,
    collinear,
    q_brute,
    t_brute,
)
from .products import (
    ProductRepTable,
    SupportSummary,
    product_rep_table,
    second_moment,
    support_census,
)
from .rng import SplitMix64, mix64, splitmix64_stream, trial_seed

__version__ = "0.1.0"
