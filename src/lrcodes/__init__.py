"""Distance-optimal locally recoverable codes for any length n <= q.

Build a code with validate_params + build_code, move symbols with
encode / repair_local / decode_erasures, and check every claim with the
verify module's brute-force oracles.  The lrcodes command line exposes
the same operations on a JSON code-file format.
"""

from .bounds import (
    NOT_APPLICABLE,
    BoundsReport,
    improved_bound,
    optimality_report,
    predicted_distance,
    rate_bound_holds,
    singleton_like_bound,
)
from .construction import (
    CodeParams,
    CodeSpec,
    MessageLayout,
    build_code,
    encode,
    message_layout,
    validate_params,
)
from .errors import (
    BudgetExceeded,
    DivisionByZero,
    DuplicateAbscissa,
    FieldTooSmall,
    IndexOutOfRange,
    InternalInconsistency,
    LengthMismatch,
    LrcError,
    NoSubgroup,
    NotAFieldElement,
    NotAPrimePower,
    NotConstantOnBlocks,
    RateBoundViolated,
    SEqualsOne,
    TooManyBlocks,
    Unrecoverable,
    UnsupportedField,
)
from .field import Field
from .goodpoly import (
    GoodPolynomial,
    PartitionSpec,
    SubgroupSpec,
    coset_partition,
    find_subgroup,
    good_polynomial,
    normalize_gamma,
)
from .repair import (
    ERASED,
    decode_erasures,
    locate_group,
    repair_coordinate,
    repair_local,
)
from .verify import (
    VerificationReport,
    brute_force_distance,
    minimum_weight_word,
    run_verification,
    verify_locality,
    verify_shortening,
)

__version__ = "0.1.0"

__all__ = [
    "BoundsReport",
    "BudgetExceeded",
    "CodeParams",
    "CodeSpec",
    "DivisionByZero",
    "DuplicateAbscissa",
    "ERASED",
    "Field",
    "FieldTooSmall",
    "GoodPolynomial",
    "IndexOutOfRange",
    "InternalInconsistency",
    "LengthMismatch",
    "LrcError",
    "MessageLayout",
    "NOT_APPLICABLE",
    "NoSubgroup",
    "NotAFieldElement",
    "NotAPrimePower",
    "NotConstantOnBlocks",
    "PartitionSpec",
    "RateBoundViolated",
    "SEqualsOne",
    "SubgroupSpec",
    "TooManyBlocks",
    "Unrecoverable",
    "UnsupportedField",
    "VerificationReport",
    "brute_force_distance",
    "build_code",
    "coset_partition",
    "decode_erasures",
    "encode",
    "find_subgroup",
    "good_polynomial",
    "improved_bound",
    "locate_group",
    "message_layout",
    "minimum_weight_word",
    "normalize_gamma",
    "optimality_report",
    "predicted_distance",
    "rate_bound_holds",
    "repair_coordinate",
    "repair_local",
    "run_verification",
    "singleton_like_bound",
    "validate_params",
    "verify_locality",
    "verify_shortening",
]
