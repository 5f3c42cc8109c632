"""LP/MILP solver kernel and pluggable backends."""

from .lp import (
    EQ,
    ERROR,
    GE,
    INFEASIBLE,
    ITERLIMIT,
    LE,
    NODELIMIT,
    OPTIMAL,
    UNBOUNDED,
    LinearProgram,
    SolveResult,
    solve_lp,
)
from .milp import MixedIntegerProgram, solve_milp
from .backend import Backend, ReferenceKernel, ScipyBackend, get_backend
from .dump import dump_program

__all__ = [
    "LinearProgram",
    "MixedIntegerProgram",
    "SolveResult",
    "solve_lp",
    "solve_milp",
    "Backend",
    "ReferenceKernel",
    "ScipyBackend",
    "get_backend",
    "dump_program",
    "OPTIMAL",
    "INFEASIBLE",
    "UNBOUNDED",
    "ITERLIMIT",
    "NODELIMIT",
    "ERROR",
    "LE",
    "EQ",
    "GE",
]
