"""Plain-text dump of a MILP for external diffing.

Format (stable ordering, one record per line, floats as ``%.12g``):

    PROBLEM MILP {min|max} vars=<n> rows=<m>
    CONST <c0>
    OBJ <c_0> <c_1> ... <c_{n-1}>
    VAR <j> lo=<lo> hi=<hi|inf> <cont|int>
    ROW <i> <rel> <rhs> : <j>:<coef> ...   (nonzeros in column order)

Rows and variables appear in their natural index order, so two dumps of the
same program are byte-identical.
"""

from __future__ import annotations

import numpy as np

from .milp import MixedIntegerProgram


def _f(v: float) -> str:
    return f"{float(v):.12g}"


def dump_program(mip: MixedIntegerProgram) -> str:
    """Render a :class:`MixedIntegerProgram`."""
    lp, integer = mip.lp, mip.integer
    lines = [f"PROBLEM MILP {lp.sense} vars={lp.n} rows={lp.m}"]
    lines.append(f"CONST {_f(lp.c0)}")
    lines.append("OBJ " + " ".join(_f(v) for v in lp.c))
    for j in range(lp.n):
        hi = "inf" if not np.isfinite(lp.upper[j]) else _f(lp.upper[j])
        tag = "int" if integer[j] else "cont"
        lines.append(f"VAR {j} lo={_f(lp.lower[j])} hi={hi} {tag}")
    for i in range(lp.m):
        nz = np.flatnonzero(lp.a[i])
        body = " ".join(f"{j}:{_f(lp.a[i, j])}" for j in nz)
        lines.append(f"ROW {i} {lp.rel[i]} {_f(lp.b[i])} : {body}")
    return "\n".join(lines) + "\n"
