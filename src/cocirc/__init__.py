"""Exact-arithmetic toolkit for concave cocirculations on convex
triangular grids and their dual honeycombs: conversion both ways,
rounding to integer values preserving the integral boundary and faces,
polytope vertex tests, and generators for the known fractional-vertex
instances."""

from .deform import StopEvent, build_deformed_system, decompose, deform, shifted_point, stop_epsilon
from .duality import grid_to_honeycomb, honeycomb_to_grid
from .errors import (
    CocircError,
    EpsilonOutOfRange,
    FNotSubsetOfEdges,
    NoNonintegralEdge,
    NonIntegerTruncationPoint,
    NotACocirculation,
    NotConcave,
    NotConnected,
    NotConvex,
    NotPreHoneycomb,
    SchemaError,
)
from .extremality import condition_c_extreme, is_vertex, solve_flat_extension, vertex_degrees_of_freedom
from .grid import (
    Cocirculation,
    ConvexGrid,
    Edge,
    Point,
    Side,
    Tiling,
    Triangle,
    cocirculation_from_quadratic,
    fill_convex_polygon,
    integer_edge_sets,
    is_concave,
    random_concave,
    three_side_grid,
    tiling_of,
    validate_grid,
)
from .honeycomb import (
    Honeycomb,
    boundary_partition,
    canonicalize,
    claw,
    divergency,
    excess,
    honeycomb_sum,
    is_prehoneycomb,
    nonintegral_sets,
)
from .integralize import Potential, TraceStep, integralize, iteration_bound_check, potential
from .paths import LegalPath, check_legal_path, dominating_edges, find_legal_path, is_legal_pair
from .spans import HEdge, HLine, Pt, XiSystem

from .constructions import (
    counterexample_instance,
    dual_grid_honeycomb,
    fix_boundary,
    fractional_vertex_instance,
    hexagon_instance,
    sample_honeycomb,
)

__all__ = [name for name in dir() if not name.startswith("_")]
