"""Verification and solving for trigraded cohomology dimension tables.

The objects are finite tables dim Gr_F^p Gr^W_q Gr^P_l H^k indexed by
cohomological degree, perverse lane, weight and Hodge index.  The package
validates such tables against structural support windows, checks duality and
Lefschetz symmetries, verifies lane-by-lane exactness of periodic sequence
templates at the dimension level, solves for a deleted table from exactness
alone, generates the builtin K3 fibration and degeneration families, checks
the mirror correspondence between the two sides, and counts dual complex
strata through base change.

The public names resolve on first use (PEP 562), so importing the package,
or running one CLI subcommand, loads only the modules that are used.
"""

import importlib

__version__ = "0.1.0"

# The public names, by the module that defines them.
_EXPORTS = {
    "catalog": ("DegenerationFamily", "EllipticCurveBase", "FibrationFamily",
                "FiniteSurfaceBase", "TypeII", "TypeIII", "base_changed_family",
                "degeneration_tables", "dual_complex", "family_spec", "family_tables",
                "fibration_tables", "parse_family", "phantom_cohomology", "veronese"),
    "checks": ("check_subvariety_constraints", "dualize_in_dimension", "hard_lefschetz_check",
               "lefschetz_partner", "poincare_verdier_dual", "validate_table"),
    "dualcomplex": ("CHAIN", "SPHERE", "DualComplexData", "base_change", "chain_counts",
                    "type_iii_counts"),
    "mirror": ("MirrorPair", "mirror_check", "mirror_quad", "mirror_transform",
               "stability_check"),
    "render": ("parse_grid", "render_table", "render_tables"),
    "sequences": ("FeasibilityResult", "Lane", "LaneEntry", "RankPin", "SequenceTemplate",
                  "SequenceTerm", "builtin_templates", "check_exactness", "check_sequence",
                  "extract_lanes", "infer_rank"),
    "solver": ("SolveResult", "solve_unknown", "support_box"),
    "spaces": ("DEGENERATION_KINDS", "FIBRATION_KINDS", "SpaceDescriptor"),
    "tables": ("Quad", "TriFilteredTable", "VerificationReport", "Violation", "canonical_json",
               "tables_from_json_obj", "tables_to_json_obj"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
