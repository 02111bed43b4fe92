"""Energy and iota energy of signed digraphs.

Library surface: signed-digraph construction and strong components
(`graphs`), spectra and the two energy functionals (`spectra`), closed-form
cycle values (`cycle_formulas`), two-cycle family orderings and their
verification (`orderings`), trig monotonicity certification (`trig`), and a
CLI (`cli`).
"""
from .cycle_formulas import (
    energy_case_label,
    energy_cycle,
    iota_case_label,
    iota_energy_cycle,
    pair_iota,
)
from .graphs import (
    CyclePair,
    EdgeListParseError,
    SignedCycle,
    SignedDigraph,
    adjacency_matrix,
    format_edge_list,
    join_with_arc,
    make_cycle,
    make_path,
    parse_edge_list,
    strong_components,
)
from .orderings import (
    MIXED_SIGN,
    SAME_SIGN,
    FloatingPairReport,
    OrderingEntry,
    OrderingSequence,
    check_exact_total_chain,
    check_mixed_chain,
    check_same_sign_chain,
    check_splice_inequalities,
    enumerate_pairs,
    expected_floating_brackets,
    extremal_pairs,
    locate_floating_pair,
    ordered_sequence,
    predicted_mixed_chain,
    predicted_same_sign_chain,
    restrict,
    splice_gap,
)
from .spectra import (
    Polynomial,
    RootFindingError,
    char_poly,
    cycle_eigenvalues,
    eigenvalues,
    energy,
    iota_energy,
    iota_energy_of_graph,
    poly_roots,
)
from .trig import (
    certify_monotone,
    f_cot_cot,
    f_csc_cot,
    f_csc_csc,
    f_inv_sq_csc,
    monotonicity_claims,
)

__version__ = "0.1.0"
