"""Order-theoretic toolkit for the causal structure of flat space-time.

Submodules load on first use.  `import causalorder` imports none of
them; the first access to an exported name (an attribute, `from
causalorder import name` or `import *`) imports the one module that
defines it, through the module `__getattr__` of PEP 562, and binds the
name here so later accesses are plain lookups.  `_EXPORTS` lists each
home module with the names it exports, and `__all__` is read off it.
numpy is imported with the package: every submodule needs it, so
deferring it would spare no caller.
"""

import importlib

import numpy  # noqa: F401

__version__ = "0.1.0"

_EXPORTS = {
    "order": (
        "Direction",
        "Event",
        "OrderKind",
        "OrderSpec",
        "PairClass",
        "apply_dilation",
        "apply_space_isometry",
        "classify_pair",
        "comparable",
        "event",
        "interval_is_chain",
        "interval_is_chain_sampled",
        "leq",
        "pairwise_comparable",
        "reconstruct_causal_analytic",
        "reconstruct_causal_sampled",
        "strictly_below",
        "subluminal_via_weakening",
    ),
    "worldlines": (
        "Gap",
        "GapWorldLine",
        "KeptEnd",
        "LightSegment",
        "PolyWorldLine",
        "Ray",
        "canonical_gap_chain",
        "is_subluminal_chain_probe",
        "make_gap_worldline",
        "make_polyline",
    ),
    "hypersurfaces": (
        "Grading",
        "Hypersurface",
        "crossing_time",
        "grading_monotone_on",
        "is_antichain_sample",
        "make_hypersurface",
    ),
    "finite": (
        "FiniteCausalSet",
        "RelationDiff",
        "SprinkleConfig",
        "build",
        "compare_relations",
        "count_maximal_chains",
        "find_avoiding_chain",
        "hasse",
        "is_cutset",
        "maximal_antichains",
        "maximal_chains",
        "reconstruct_order",
        "sprinkle",
    ),
    "cones": (
        "ConeClass",
        "ConeKind",
        "ConeOracle",
        "InvarianceReport",
        "affine_cone",
        "check_invariance",
        "classify_cone",
        "cone_order_leq",
        "standard_cone",
    ),
    "fileio": (
        "ParseError",
        "dot_digraph",
        "gap_worldline_from_file",
        "read_events",
        "read_surface",
        "read_worldline",
        "write_events",
        "write_gap_worldline",
        "write_surface",
        "write_worldline",
    ),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule not imported yet
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
