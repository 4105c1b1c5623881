"""maltsev-lab: decision procedures for quasi weak near-unanimity and quasi
Taylor terms of finite algebras, with verified witness terms, a subpower
saturation engine, digraph loop-lemma checks, and brute-force clone oracles.
"""

from .algebra import (
    Apply,
    FiniteAlgebra,
    Operation,
    Term,
    UnaryMap,
    Variable,
    evaluate_columns,
    evaluate_term,
    flat_index,
    induced_image_algebra,
    is_idempotent,
    minimal_unary_idempotent,
    restrict_to_image,
    term_arity,
    term_table,
    unary_term_monoid,
)
from .decision import (
    DecisionReport,
    PairWitness,
    Problem,
    ReportStats,
    decide,
    has_k_qwnu,
    has_k_wnu_idemp,
    has_n_local_k_qwnu,
    has_quasi_taylor,
    nlocal,
    qtaylor,
    qwnu,
    verify_local,
)
from .digraph import (
    Digraph,
    build_G,
    build_S,
    format_digraph,
    has_algebraic_length_one,
    has_loop,
    is_admissible,
    is_smooth,
    parse_digraph,
    replay_walk,
)
from .errors import (
    AlgebraFormatError,
    BudgetExceededError,
    ConsistencyError,
    TermError,
)
from .io import (
    format_algebra,
    format_term,
    parse_algebra,
    parse_term,
    report_to_dict,
    report_to_json,
    report_to_text,
)
from .oracle import (
    CloneSlice,
    SplitMix64,
    dump_corpus,
    enumerate_clone_slice,
    oracle_find_quasi_siggers,
    oracle_find_qwnu,
    qwnu_table_check,
    quasi_siggers_table_check,
    random_algebra,
)
from .subpower import (
    BlockRepeat,
    TupleRelation,
    WitnessTerm,
    extract_witness,
    find_block_repeat,
    generate_subpower,
    generate_until,
)

__version__ = "0.1.0"
