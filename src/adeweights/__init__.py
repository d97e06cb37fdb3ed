"""Exact weight systems on semi-affine ADE graphs and their group-side
Molien series, with a verification suite tying the two together."""

from .cyclo import CycNumber, euler_phi
from .graphs import (DirectedGraph, DynkinType, build_graph, char_poly,
                     charpoly_report, graph_marks, parse_type_selector)
from .groups import (CharTable, FiniteSubgroup, MolienSet, build_group,
                     char_table, enumerate_subgroup, generators, mckay_matrix,
                     molien_series, recurrence_check, sym_power_multiplicities,
                     table_violation)
from .poly import (Polynomial, RationalFunction, cox, cyclotomic,
                   fold_palindromic, substitute_t)
from .verify import DEFAULT_SUITE, FaultSpec, build_bundle, run_suite
from .weights import (QNumerators, TWeights, check_notes, closed_form,
                      common_denominator, finite_reduction_check,
                      intermediate_q_weights, solve_semiaffine,
                      specialization_identity, to_q_numerators)

__version__ = "0.1.0"

__all__ = [
    "CycNumber", "euler_phi",
    "DirectedGraph", "DynkinType", "build_graph", "char_poly",
    "charpoly_report", "graph_marks", "parse_type_selector",
    "CharTable", "FiniteSubgroup", "MolienSet", "build_group", "char_table",
    "enumerate_subgroup", "generators", "mckay_matrix", "molien_series",
    "recurrence_check", "sym_power_multiplicities", "table_violation",
    "Polynomial", "RationalFunction", "cox", "cyclotomic", "fold_palindromic",
    "substitute_t",
    "DEFAULT_SUITE", "FaultSpec", "build_bundle", "run_suite",
    "QNumerators", "TWeights", "check_notes", "closed_form",
    "common_denominator", "finite_reduction_check", "intermediate_q_weights",
    "solve_semiaffine", "specialization_identity", "to_q_numerators",
]
