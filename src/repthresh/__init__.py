"""repthresh: repetition thresholds for words over small alphabets.

Detect fractional powers with bounded-below period and exact rational
exponents, certify unavoidability of exponent classes by exhaustive search,
sample constraint-satisfying words by Moser-Tardos resampling, and evaluate
the explicit constructions and bound formulas of the trade.
"""

from .words import (
    FreenessConstraint,
    Mode,
    Occurrence,
    Word,
    WordFormatError,
    exponent_of,
    parse_exponent,
    parse_word,
    read_word_file,
    render_word,
    verify_occurrence,
)
from .detect import (
    DetectionReport,
    detect,
    exists_repetition,
    max_exponent,
    min_repeat_distance,
    naive_oracle,
    violations_ending_at,
)
from .search import (
    Bracket,
    Outcome,
    SearchCertificate,
    VerificationResult,
    bracket_threshold,
    candidate_exponents,
    default_target_length,
    extend_search,
    verify_certificate,
)
from .sampler import (
    SamplerConfig,
    SamplerReport,
    SplitMix64,
    resample_trace,
    sample_free_word,
)
from .construct import (
    BoundReport,
    ColoringParams,
    bound_report,
    build_mapped_word,
    colorize,
    fov_lower_bound,
    fov_upper_main_term,
    growth_lambda,
    paper_upper_form,
    pigeonhole_witness,
    rank_map_block_extend,
    rank_map_eval,
    rank_map_image_size,
    rank_map_table,
    simple_lower_bound,
    thue_morse,
    weak_upper_bound,
)

__version__ = "0.1.0"
