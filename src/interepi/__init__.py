"""Epidemic thresholds and SIR simulation on disjoint interdependent networks."""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    CrossLayerColorMismatch,
    DomainError,
    DuplicateEdge,
    EmptyColor,
    GraphValidationError,
    InterepiError,
    KappaAtMostOne,
    LengthMismatch,
    MeanDegreeTooLarge,
    NoEdgesInScope,
    NonConvergence,
    NotTwoLayers,
    ParseError,
    SelfLoop,
    UnknownNode,
    WiringFailed,
    ZeroGcc,
)
from .graph import (
    ColorTable,
    ComponentResult,
    Coupling,
    LayeredGraph,
    build_graph,
    classify_coupling,
    giant_component,
    graphs_equal,
    kappa,
)
from .generate import (
    ErLayerSpec,
    PowerLawSpec,
    build_interdependent,
    child_rng,
    gen_er_interlayer,
    gen_er_layer,
    gen_powerlaw_layer,
    sample_powerlaw_degrees,
)
from .threshold import (
    DegreeTable,
    FrontierSet,
    NetworkState,
    ThresholdResult,
    Transmissibilities,
    classify_state,
    colored_cross_moments,
    frontier,
    jacobian_closed_form,
    multi_threshold,
    multi_threshold_empirical,
    perron_roots,
    powerlaw_moments,
    single_layer_threshold,
    spectral_radius,
    transmissibility,
)
from .sir import (
    DensityResult,
    DynamicsResult,
    SeedPolicy,
    SimSummary,
    SirConfig,
    SweepResult,
    dynamics,
    infection_density,
    run_sir,
    structural_gcc_sizes,
    sweep_heatmap,
)
from .io import (
    ExperimentConfig,
    load_graph,
    model_moments,
    parse_config,
    parse_config_text,
    run_experiment,
    write_graph,
)

__all__ = [name for name in dir() if not name.startswith("_")]
