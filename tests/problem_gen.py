"""Deterministic random constraint-problem generator for corpus tests, and
TSP instances built from plain weight rows.

Each generated problem comes with an independent plain-tuple description
of its constraints so tests can evaluate satisfaction without touching the
package's own constraint types.
"""

import random

from qsolve.problems import EqualConst, NotEqual, SatProblem, SumEquals, TspInstance, VarDecl

MAX_SEARCH_QUBITS = 10


def instance_from_rows(rows) -> TspInstance:
    return TspInstance(tuple(tuple(int(x) for x in row) for row in rows))


def generate_problem(rng: random.Random):
    """One random problem plus (kind, ...) tuples mirroring its constraints."""
    num_vars = rng.randint(1, 4)
    names = [chr(ord("a") + i) for i in range(num_vars)]
    widths = {}
    budget = MAX_SEARCH_QUBITS
    for i, name in enumerate(names):
        remaining_vars = num_vars - i - 1
        width = rng.randint(1, min(3, budget - remaining_vars))
        widths[name] = width
        budget -= width
    decls = tuple(VarDecl(name, widths[name]) for name in names)

    constraints = []
    specs = []
    for _ in range(rng.randint(1, 4)):
        kind = rng.choice(("not_equal", "equal_const", "sum_equals"))
        if kind == "not_equal":
            a = rng.choice(names)
            same_width = [n for n in names if widths[n] == widths[a]]
            b = rng.choice(same_width)
            constraints.append(NotEqual(a, b))
            specs.append(("not_equal", a, b))
        elif kind == "equal_const":
            a = rng.choice(names)
            value = rng.randrange(1 << widths[a])
            constraints.append(EqualConst(a, value))
            specs.append(("equal_const", a, value))
        else:
            operands = tuple(rng.choice(names) for _ in range(rng.randint(1, 3)))
            top = sum((1 << widths[n]) - 1 for n in operands)
            value = rng.randint(0, top)
            constraints.append(SumEquals(operands, value))
            specs.append(("sum_equals", operands, value))
    return SatProblem(decls, tuple(constraints)), specs


def generate_corpus(count: int, seed: int):
    rng = random.Random(seed)
    return [generate_problem(rng) for _ in range(count)]
