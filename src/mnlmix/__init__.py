"""Mixtures of two multinomial logits: identifiability and learning."""

from .model import (
    MixtureModel,
    OracleTable,
    Slate,
    WeightVector,
    all_slates,
    load_model,
    load_oracle,
    oracle_table,
    random_instance,
    sample_counts,
    sample_empirical,
    save_model,
    save_oracle,
    slate_distribution,
)
from .polynomials import (
    RealPolynomial,
    RootSet,
    count_real_roots_sturm,
    cubic_discriminant,
    deflate_root,
    solve_all_roots,
    sylvester_resultant,
)
from .systems import (
    PairSystemInput,
    back_substitute,
    pair_quartic,
    pair_slate_quartic,
    pair_system,
    partner_value,
    resultant_gate,
)
from .identify import (
    CandidateSolution,
    IdentifiabilityReport,
    check_identifiability,
    enumerate_candidates,
    solve_pair_system,
)
from .learn import (
    LearnConfig,
    LearnReport,
    learn_from_oracle,
    learn_from_samples,
)

__version__ = "0.1.0"
