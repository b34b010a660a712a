"""Friendliness of trees under edge bijections, and everything around it:
linking predicates, exhaustive catalogues, circle-system dual trees, surveys.
"""

from .circles import NestingForest, dual_tree, parse_nesting
from .enumeration import TreeCatalog, enumerate_trees, prufer_oracle_count
from .linking import same_side, same_side_bruteforce, unlinked, unlinked_bruteforce
from .realizability import (
    Certificate,
    EdgeBijection,
    certificate_to_text,
    exhaustive_search,
    find_realizable_bijection,
    is_realizable,
    parse_certificate,
    recheck_certificate,
)
from .survey import (
    ConjectureCheck,
    SurveyReport,
    SurveyRow,
    Theorem1Result,
    build_G,
    build_H,
    format_report,
    parse_report,
    survey_pairs,
    verify_conjecture,
    verify_report_witnesses,
    verify_theorem1,
    write_report,
)
from .tree import (
    Tree,
    canonical_code,
    edge_mask,
    format_tree,
    mask_ids,
    parse_tree,
    path_edges,
)

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "ConjectureCheck",
    "EdgeBijection",
    "NestingForest",
    "SurveyReport",
    "SurveyRow",
    "Theorem1Result",
    "Tree",
    "TreeCatalog",
    "build_G",
    "build_H",
    "canonical_code",
    "certificate_to_text",
    "dual_tree",
    "edge_mask",
    "enumerate_trees",
    "exhaustive_search",
    "find_realizable_bijection",
    "format_report",
    "format_tree",
    "is_realizable",
    "mask_ids",
    "parse_certificate",
    "parse_nesting",
    "parse_report",
    "parse_tree",
    "path_edges",
    "prufer_oracle_count",
    "recheck_certificate",
    "same_side",
    "same_side_bruteforce",
    "survey_pairs",
    "unlinked",
    "unlinked_bruteforce",
    "verify_conjecture",
    "verify_report_witnesses",
    "verify_theorem1",
    "write_report",
]
