"""Independent brute-force oracles for cross-checking the package.

Everything here is written against raw numpy arrays with its own embedding
and partial-trace machinery (tensor reshapes and kron/transpose, instead of
the package's bit-indexed embedding and Kraus channels), so agreement with
the package is a real two-path check and not a tautology.

Conventions match the package: big-endian qubit order, psi+ target,
kept/control qubits first.
"""

import numpy as np

ID2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
CNOT2 = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
ROT_A = (ID2 - 1j * X) / np.sqrt(2)
ROT_B = (ID2 + 1j * X) / np.sqrt(2)

P0 = np.diag([1.0, 0.0]).astype(complex)
P1 = np.diag([0.0, 1.0]).astype(complex)


def n_qubits(rho):
    return int(round(np.log2(rho.shape[0])))


def embed(op, n, qubits):
    """kron the operator with identity, then transpose axes into place."""
    qubits = list(qubits)
    k = len(qubits)
    rest = [q for q in range(n) if q not in qubits]
    order = qubits + rest  # axis i of the kron product holds actual qubit order[i]
    full = np.kron(op, np.eye(2 ** (n - k), dtype=complex))
    t = full.reshape((2,) * (2 * n))
    inv = [order.index(q) for q in range(n)]
    t = t.transpose(inv + [n + i for i in inv])
    return t.reshape(2**n, 2**n)


def ptrace(rho, keep):
    """Partial trace via einsum over explicit subscripts."""
    n = n_qubits(rho)
    keep = sorted(keep)
    t = rho.reshape((2,) * (2 * n))
    letters = "abcdefgh"
    row = list(letters[:n])
    col = list(letters[n : 2 * n])
    for q in range(n):
        if q not in keep:
            col[q] = row[q]
    out = "".join(row[q] for q in keep) + "".join(letters[n + q] for q in keep)
    subscripts = "".join(row) + "".join(col) + "->" + out
    dim = 2 ** len(keep)
    return np.einsum(subscripts, t).reshape(dim, dim)


def permuted_tensor(left, right, left_positions, n):
    """kron(left, right) with left's qubits routed to the given positions."""
    k = n_qubits(left)
    rest = [q for q in range(n) if q not in left_positions]
    order = list(left_positions) + rest
    t = np.kron(left, right).reshape((2,) * (2 * n))
    inv = [order.index(q) for q in range(n)]
    t = t.transpose(inv + [n + i for i in inv])
    return t.reshape(2**n, 2**n)


def noisy_gate(rho, u2, pair, f_op):
    """Ideal gate, then the gate pair replaced by I/4 with probability 1-f."""
    n = n_qubits(rho)
    u = embed(u2, n, pair)
    ideal = u @ rho @ u.conj().T
    if f_op == 1.0:
        return ideal
    rest = [q for q in range(n) if q not in pair]
    if rest:
        marginal = ptrace(ideal, rest)
        mixed = permuted_tensor(np.eye(4, dtype=complex) / 4.0, marginal, pair, n)
    else:
        mixed = np.eye(4, dtype=complex) / 4.0
    return f_op * ideal + (1.0 - f_op) * mixed


def measure(rho, qubit, eta):
    """Project-then-mislabel measurement; yields (outcome, prob, post)."""
    n = n_qubits(rho)
    proj = {0: embed(P0, n, [qubit]), 1: embed(P1, n, [qubit])}
    keep = [q for q in range(n) if q != qubit]
    for outcome in (0, 1):
        true_branches = eta * proj[outcome] @ rho @ proj[outcome]
        true_branches = true_branches + (1 - eta) * proj[1 - outcome] @ rho @ proj[1 - outcome]
        prob = float(np.real(np.trace(true_branches)))
        post = ptrace(true_branches, keep) / prob if prob > 1e-15 else None
        yield outcome, prob, post


def purify_round(kept, sacrificed, f_op, eta, balanced=True):
    """One purification round on the raw 16x16 state; returns (p, kept_out)."""
    rho = np.kron(kept, sacrificed)
    if balanced:
        r = np.kron(np.kron(ROT_A, ROT_B), np.kron(ROT_A, ROT_B))
        rho = r @ rho @ r.conj().T
    rho = noisy_gate(rho, CNOT2, [0, 2], f_op)
    rho = noisy_gate(rho, CNOT2, [1, 3], f_op)
    p_total = 0.0
    out = np.zeros((4, 4), dtype=complex)
    for o3, p3, post3 in measure(rho, 3, eta):
        if post3 is None:
            continue
        for o2, p2, post2 in measure(post3, 2, eta):
            if post2 is None or o2 != o3:
                continue
            p_total += p3 * p2
            out += p3 * p2 * post2
    return p_total, out / p_total


def bell_measurement(two_pairs, f_op, eta):
    """Averaged noisy swap of (end_a, mid1, mid2, end_b); returns the end pair."""
    rho = noisy_gate(two_pairs, CNOT2, [1, 2], f_op)
    h = embed(H, 4, [1])
    rho = h @ rho @ h.conj().T
    out = np.zeros((4, 4), dtype=complex)
    for o2, p2, post2 in measure(rho, 2, eta):
        if post2 is None:
            continue
        for o1, p1, post1 in measure(post2, 1, eta):
            if post1 is None:
                continue
            corr = np.linalg.matrix_power(X, o2 ^ 1) @ np.linalg.matrix_power(Z, o1)
            c = embed(corr, 2, [1])
            out += p2 * p1 * (c @ post1 @ c.conj().T)
    return out


def swap_gate(rho, a, b, f_op):
    """Three noisy CNOTs a->b, b->a, a->b."""
    rho = noisy_gate(rho, CNOT2, [a, b], f_op)
    rho = noisy_gate(rho, CNOT2, [b, a], f_op)
    rho = noisy_gate(rho, CNOT2, [a, b], f_op)
    return rho


def werner_purify_step(f):
    """Closed-form single purification round for Werner inputs, ideal ops."""
    e = (1.0 - f) / 3.0
    p = f**2 + 2.0 * f * e + 5.0 * e**2
    return (f**2 + e**2) / p, p


def werner_swap_step(f):
    """Closed-form entanglement swapping of two Werner pairs, ideal ops."""
    return f**2 + (1.0 - f) ** 2 / 3.0


PSI_PLUS_KET = np.zeros(4, dtype=complex)
PSI_PLUS_KET[1] = PSI_PLUS_KET[2] = 1 / np.sqrt(2)


def psi_plus_fidelity(rho):
    return float(np.real(PSI_PLUS_KET.conj() @ rho @ PSI_PLUS_KET))


# phi+, phi-, psi+, psi- as the columns
BELL_BASIS = np.array(
    [[1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 1, -1], [1, -1, 0, 0]], dtype=complex
) / np.sqrt(2)


def werner_dm(f):
    weights = [(1 - f) / 3, (1 - f) / 3, f, (1 - f) / 3]
    return BELL_BASIS @ np.diag(weights) @ BELL_BASIS.conj().T


def bell_weights(rho):
    """(diagonal, largest off-diagonal magnitude) of a pair in the Bell basis."""
    in_bell = BELL_BASIS.conj().T @ rho @ BELL_BASIS
    diagonal = np.real(np.diag(in_bell))
    return diagonal, float(np.max(np.abs(in_bell - np.diag(np.diag(in_bell)))))


def depolarize(rho, qubit, p):
    """The qubit is replaced by I/2 with probability p."""
    n = n_qubits(rho)
    rest = [q for q in range(n) if q != qubit]
    mixed = permuted_tensor(ID2 / 2.0, ptrace(rho, rest), [qubit], n)
    return (1.0 - p) * rho + p * mixed


def qc_zone_state(f_tech, f_op, f_move):
    """Werner pair -> three noisy CNOTs onto a fresh |0> shuttle -> transport."""
    rho = swap_gate(np.kron(werner_dm(f_tech), P0), 1, 2, f_op)
    return depolarize(ptrace(rho, [0, 2]), 1, 4.0 * (1.0 - f_move) / 3.0)
