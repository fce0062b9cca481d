"""Exact computation with finite ordered algebras: residuation checks,
twist-product constructions, and brute-force verification sweeps."""

from .order import (OrderError, Poset, antichain, bits, chain,
                    is_antitone_involution, is_distributive, is_kleene,
                    is_lattice, is_pseudo_kleene, lower_cone, mask_of,
                    poset_from_covers, poset_from_leq, poset_from_relation,
                    set_leq, upper_cone)
from .report import CheckItem, all_pass, exit_code, render
from .residuation import (CONDITION_IDS, Classification, ResStructure,
                          StructureError, Verdicts, check_condition,
                          check_derived_laws, classify, condition_applicable,
                          condition_holds, is_associative, is_commutative,
                          structure, synthesize_residuum)
from .twist import (OperatorStructure, build_operator_twist, check_embedding,
                    check_operator_residuated, check_twist_lifting,
                    full_twist, operator_rows, pair_names, projection,
                    twist_operations)
from .kleene_twist import (RestrictedTwist, build_restricted_operators,
                           build_restricted_twist, check_kleene_twist,
                           check_restricted_closure,
                           check_restriction_assumptions, classify_escape,
                           pair_in_carrier)
from .search import (EnumerationError, PROPERTIES, STRUCTURE_KINDS,
                     check_universal, describe_poset, describe_structure,
                     enumerate_posets, enumerate_structures,
                     residuable_columns, suite_properties)
from .structfile import (ParseError, StructureFile, data_path, emit_structure,
                         emit_tables, load, parse)

__version__ = "0.1.0"
