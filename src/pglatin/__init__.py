"""Projective planes of order k, complete sets of k-1 mutually projective
Latin squares, and the matching duality used to reason about both.

The public names load on first use: `import pglatin` imports none of the
submodules, and `pglatin.build_pg2` imports `pglatin.planes` (and what it
imports) the first time it is read. A CLI process thus loads only the
modules its subcommand runs.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# each submodule with the public names it defines, in `__all__` order
_EXPORTS = {
    "binmat": "BinaryMatrix FormatError Permutation from_inc_text is_permutation_matrix permute to_inc_text",
    "canonical": "BlockForm BlockFormReport canonicalize extract_mpls reconstruct verify_block_form",
    "geometry": "Geometry GeometryError PencilWithTransversal PlaneVerdict ProjectivePlane classify_v_eq_b"
    " find_four_independent geometry_from_incidence geometry_from_json geometry_to_json incidence_from_geometry"
    " incident_injection line_through plane_check subgeometry validate_geometry",
    "latin": "LatinSquare MplsReport MplsSet ResolvabilityReport Transversal cyclic_square from_ls_text"
    " group_product_cover pair_coverage projective_pair random_latin_square resolvability_report"
    " submatrix_symbol_count to_ls_text transversals_from_companion verify_mpls",
    "matching": "Biconditional DualityReport MatchingWitness ZeroBlockWitness bipartite_matching"
    " decompose_regular duality_report max_independent_ones max_zero_submatrix",
    "planes": "FiniteField PlaneBundle build_field build_pg2 prime_power smallest_irreducible",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name: str):
    if name in _EXPORTS:
        return _import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
