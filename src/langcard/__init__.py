"""langcard: exact accuracy assessment of inferred finite-state models.

Given a reference DFA and an inferred DFA over the same alphabet, the
toolkit counts true-positive, false-positive and false-negative traces per
trace length exactly (through generating functions of the confusion
languages) and derives deterministic precision/recall values, alongside the
classic statistical and model-based assessment baselines.
"""

__version__ = "0.1.0"

from .automata import (
    Alphabet,
    Dfa,
    build_dfa,
    confusion_automata,
    confusion_product,
    format_traces,
    parse_dfa,
    parse_traces,
    serialize_dfa,
)
from .baselines import (
    RandomWalkConfig,
    characterization_set,
    mbt_assessment,
    sigma_sampling_assessment,
    state_cover,
    trace_similarity,
    trace_similarity_conditioned,
    w_method_test_set,
)
from .counting import (
    WorkBudget,
    coefficients,
    compute_ogf,
    count_by_class,
    count_dp,
    digraph_construction,
    elimination_ogf,
)
from .inference import (
    TrainingSet,
    generate_training_set,
    k_tails,
)
from .metrics import (
    AssessmentResult,
    ConfusionCounts,
    assess,
    bounded_jaccard,
    confusion_counts,
    cumulative_assessment,
    single_length_assessment,
)
from .polynomials import Polynomial, RationalFunction, kleene_star
from .regexes import EPSILON, alt, one_of, seq, star, sym, to_dfa

__all__ = [
    "Alphabet",
    "AssessmentResult",
    "ConfusionCounts",
    "Dfa",
    "EPSILON",
    "Polynomial",
    "RandomWalkConfig",
    "RationalFunction",
    "TrainingSet",
    "WorkBudget",
    "alt",
    "assess",
    "bounded_jaccard",
    "build_dfa",
    "characterization_set",
    "coefficients",
    "compute_ogf",
    "confusion_automata",
    "confusion_counts",
    "confusion_product",
    "count_by_class",
    "count_dp",
    "cumulative_assessment",
    "digraph_construction",
    "elimination_ogf",
    "format_traces",
    "generate_training_set",
    "k_tails",
    "kleene_star",
    "mbt_assessment",
    "one_of",
    "parse_dfa",
    "parse_traces",
    "seq",
    "serialize_dfa",
    "sigma_sampling_assessment",
    "single_length_assessment",
    "star",
    "state_cover",
    "sym",
    "to_dfa",
    "trace_similarity",
    "trace_similarity_conditioned",
    "w_method_test_set",
]
