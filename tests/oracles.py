"""Independent reference computations the test suite checks the package
against.  Everything here is built from explicit matrices, projector
algebra and brute-force enumeration, deliberately sharing no code with the
package's simulator kernels or solvers.

Index convention matches the package: qubit 0 is the first Kronecker
factor, i.e. the most significant bit of a basis index.
"""

import itertools
import math
from functools import reduce

import numpy as np

I2 = np.eye(2, dtype=complex)
P0 = np.array([[1, 0], [0, 0]], dtype=complex)
P1 = np.array([[0, 0], [0, 1]], dtype=complex)

GATE_1Q = {
    "h": np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def single_qubit_matrix(name: str, lam: float = 0.0) -> np.ndarray:
    if name == "phase":
        return np.array([[1, 0], [0, np.exp(1j * lam)]], dtype=complex)
    return GATE_1Q[name]


def kron_chain(factors) -> np.ndarray:
    return reduce(np.kron, factors)


def embedded_single(
    gate2: np.ndarray, num_qubits: int, target: int, controls=()
) -> np.ndarray:
    """Full-register matrix of a controlled single-qubit gate.

    Projector form: P1(controls) (x) U on the target, plus the identity on
    the complement of the control subspace.
    """
    controls = set(controls)
    active = kron_chain(
        [P1 if q in controls else (gate2 if q == target else I2) for q in range(num_qubits)]
    )
    control_subspace = kron_chain(
        [P1 if q in controls else I2 for q in range(num_qubits)]
    )
    return active + (np.eye(1 << num_qubits, dtype=complex) - control_subspace)


def embedded_swap(num_qubits: int, t1: int, t2: int, controls=()) -> np.ndarray:
    """Controlled swap as a product of three controlled-X embeddings."""
    x = GATE_1Q["x"]
    a = embedded_single(x, num_qubits, t2, (*controls, t1))
    b = embedded_single(x, num_qubits, t1, (*controls, t2))
    return a @ b @ a


def embedded_op(
    num_qubits: int, name: str, lam: float, controls, targets
) -> np.ndarray:
    if name == "swap":
        return embedded_swap(num_qubits, targets[0], targets[1], controls)
    return embedded_single(single_qubit_matrix(name, lam), num_qubits, targets[0], controls)


def circuit_matrix(circuit) -> np.ndarray:
    """Full unitary of a circuit, op by op, from the embedded matrices."""
    dim = 1 << circuit.num_qubits
    mat = np.eye(dim, dtype=complex)
    for op in circuit.ops:
        mat = (
            embedded_op(
                circuit.num_qubits, op.gate.name, op.gate.lam, op.controls, op.targets
            )
            @ mat
        )
    return mat


def dft_matrix(num_qubits: int) -> np.ndarray:
    """W[l, j] = exp(2*pi*i*l*j / 2**m) / sqrt(2**m)."""
    dim = 1 << num_qubits
    grid = np.outer(np.arange(dim), np.arange(dim))
    return np.exp(2j * np.pi * grid / dim) / math.sqrt(dim)


def grover_iterations(num_qubits: int, num_solutions: int) -> int:
    """floor((pi/4) * sqrt(2**n / k)): the amplification optimum when the
    solution count k is known."""
    return math.floor((math.pi / 4) * math.sqrt((1 << num_qubits) / num_solutions))


def amplification_probability(search_qubits: int, num_solutions: int, iterations: int) -> float:
    """Total success probability after ``iterations`` oracle+diffuser rounds,
    from the closed-form rotation picture."""
    theta = math.asin(math.sqrt(num_solutions / (1 << search_qubits)))
    return math.sin((2 * iterations + 1) * theta) ** 2


# --- brute-force constraint evaluation ---------------------------------------


def assignment_satisfies(assignment: dict, constraints) -> bool:
    """Independent evaluation of (kind, payload) constraint tuples:
    ("not_equal", a, b), ("equal_const", a, value), ("sum_equals", names, value).
    """
    for rule in constraints:
        kind = rule[0]
        if kind == "not_equal":
            if assignment[rule[1]] == assignment[rule[2]]:
                return False
        elif kind == "equal_const":
            if assignment[rule[1]] != rule[2]:
                return False
        elif kind == "sum_equals":
            if sum(assignment[name] for name in rule[1]) != rule[2]:
                return False
        else:
            raise ValueError(f"unknown kind {kind!r}")
    return True


def enumerate_satisfying(var_widths, constraints) -> list[dict]:
    """All satisfying assignments of ``var_widths`` (name -> bits), ordered
    by the concatenated bitstring value."""
    names = list(var_widths)
    found = []
    for values in itertools.product(*((range(1 << var_widths[n])) for n in names)):
        assignment = dict(zip(names, values))
        if assignment_satisfies(assignment, constraints):
            found.append(assignment)
    return found


def satisfying_mask(var_widths, constraints) -> np.ndarray:
    """:func:`assignment_satisfies` on every assignment at once, as a bool
    array indexed by the concatenated bitstring value."""
    total = sum(var_widths.values())
    index = np.arange(1 << total)
    values = {}
    shift = total
    for name, width in var_widths.items():  # declaration order, MSB-first
        shift -= width
        values[name] = (index >> shift) & ((1 << width) - 1)
    mask = np.ones(1 << total, dtype=bool)
    for rule in constraints:
        kind = rule[0]
        if kind == "not_equal":
            mask &= values[rule[1]] != values[rule[2]]
        elif kind == "equal_const":
            mask &= values[rule[1]] == rule[2]
        elif kind == "sum_equals":
            mask &= sum(values[name] for name in rule[1]) == rule[2]
        else:
            raise ValueError(f"unknown kind {kind!r}")
    return mask


# --- brute-force tours ---------------------------------------------------------


def brute_force_tours(weights) -> list[tuple[tuple[int, ...], int]]:
    """(canonical tour, length) for every rotation/reversal-unique cycle."""
    n = len(weights)
    results = []
    for rest in itertools.permutations(range(2, n + 1)):
        if rest[0] >= rest[-1]:
            continue
        tour = (1, *rest)
        closed = (*tour, tour[0])
        length = sum(weights[a - 1][b - 1] for a, b in zip(closed, closed[1:]))
        results.append((tour, length))
    return results


def canonical_tour(tour) -> tuple[int, ...]:
    """Rotate a cycle to start at node 1, then reverse it if its second node
    is larger than its last."""
    start = tour.index(1)
    rotated = (*tour[start:], *tour[:start])
    if rotated[1] > rotated[-1]:
        rotated = (1, *reversed(rotated[1:]))
    return rotated


def diagonal_exponents(weights) -> np.ndarray:
    """Exponent of the TSP weight-phase diagonal at every basis state of the
    successor register: the summed weight of the edges its successor claims
    point along, where self-loops and claims past node n add nothing.

    Node i's block of ceil(log2 n) bits holds its successor minus one, MSB
    first, with node 1's block leftmost.
    """
    w = np.array(weights, dtype=np.int64)
    n = w.shape[0]
    b = math.ceil(math.log2(n))
    # edge weight by (node, claimed successor - 1), zero where nothing is added
    gain = np.zeros((n, 1 << b), dtype=np.int64)
    gain[:, :n] = w
    gain[np.arange(n), np.arange(n)] = 0
    index = np.arange(1 << (n * b), dtype=np.int64)
    shifts = b * np.arange(n - 1, -1, -1)
    claims = (index[:, np.newaxis] >> shifts) & ((1 << b) - 1)
    return gain[np.arange(n), claims].sum(axis=1)


# --- independent full phase estimation -----------------------------------------


def reference_qpe_distribution(
    exponents: np.ndarray, eigenstate: int, scale: int, precision_bits: int
) -> np.ndarray:
    """Readout distribution of textbook phase estimation, simulated directly
    with numpy on the joint precision+target register.

    The target register starts in the given basis state; each precision
    qubit j controls the diagonal operator raised to the 2**(m-1-j) power;
    then the inverse Fourier transform acts on the precision register alone.
    Returns the probability of each m-bit readout.
    """
    m = precision_bits
    pdim = 1 << m
    tdim = exponents.shape[0]
    # joint amplitudes indexed [precision_value, target_value]
    joint = np.zeros((pdim, tdim), dtype=complex)
    joint[:, eigenstate] = 1.0 / math.sqrt(pdim)  # H on every precision qubit
    unit_phase = np.exp(2j * np.pi * np.asarray(exponents) / scale)
    for j in range(m):
        power = 1 << (m - 1 - j)
        controlled = unit_phase**power
        rows = (np.arange(pdim) >> (m - 1 - j)) & 1  # precision qubit j set?
        joint[rows == 1, :] *= controlled[np.newaxis, :]
    inv_qft = dft_matrix(m).conj().T
    joint = inv_qft @ joint
    return (np.abs(joint) ** 2).sum(axis=1)


# --- seeded sampling ----------------------------------------------------------------


def choice_histogram(amps, shots: int, seed: int, qubits=None, zero_tol: float = 1e-12) -> dict:
    """Seeded measurement counts drawn the direct way: probabilities below
    ``zero_tol`` clamped to zero, normalized, ``Generator.choice`` over the
    basis indices, counted with ``np.unique``, and full-register outcomes
    that read the same on ``qubits`` merged.  Keys are sorted bitstrings."""
    amps = np.asarray(amps, dtype=complex)
    n = amps.shape[0].bit_length() - 1
    p = np.abs(amps) ** 2
    p = np.where(p < zero_tol, 0.0, p)
    p /= p.sum()
    draws = np.random.default_rng(seed).choice(p.shape[0], size=shots, p=p)
    values, freq = np.unique(draws, return_counts=True)
    counts: dict = {}
    for value, count in zip(values.tolist(), freq.tolist()):
        bits = format(value, f"0{n}b")
        key = bits if qubits is None else "".join(bits[q] for q in qubits)
        counts[key] = counts.get(key, 0) + count
    return dict(sorted(counts.items()))
