"""Pauli bitmask algebra: products, phases, commutation, conjugation.

The ground truth throughout is the dense 2^n matrix representation built
independently below -- every structural claim is checked against literal
numpy kron products before the frozen scalar cases are asserted.
"""

import numpy as np
import pytest

from dyncirc.pauli import PauliString

I2 = np.eye(2, dtype=complex)
X2 = np.array([[0, 1], [1, 0]], dtype=complex)
Y2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z2 = np.array([[1, 0], [0, -1]], dtype=complex)
MATS = {"I": I2, "X": X2, "Y": Y2, "Z": Z2}


def dense(text):
    """Independent dense build of a signed Pauli string (oracle)."""
    sign = 1.0
    if text[0] in "+-":
        sign = 1.0 if text[0] == "+" else -1.0
        text = text[1:]
    m = np.array([[sign]], dtype=complex)
    for ch in text:
        m = np.kron(m, MATS[ch])
    return m


def all_two_qubit_strings():
    out = []
    for s in "+-":
        for a in "IXYZ":
            for b in "IXYZ":
                out.append(s + a + b)
    return out


# ---------------------------------------------------------------------------
# text form
# ---------------------------------------------------------------------------


def test_text_round_trip_exact():
    p = PauliString.from_text("-YYX")
    assert str(p) == "-YYX"
    assert p.sign == -1
    assert p.n == 3
    assert (p.letter(0), p.letter(1), p.letter(2)) == ("Y", "Y", "X")


@pytest.mark.parametrize("text", all_two_qubit_strings())
def test_text_round_trip_all_two_qubit(text):
    p = PauliString.from_text(text)
    assert str(p) == text
    assert np.allclose(p.to_matrix(), dense(text))


def test_plus_sign_is_default_and_optional():
    assert PauliString.from_text("XZ") == PauliString.from_text("+XZ")
    assert str(PauliString.from_text("XZ")) == "+XZ"


def test_unicode_minus_accepted():
    assert PauliString.from_text("−Z") == PauliString.from_text("-Z")


def test_bad_text_rejected():
    with pytest.raises(ValueError):
        PauliString.from_text("XQ")
    with pytest.raises(ValueError):
        PauliString.from_text("+")


# ---------------------------------------------------------------------------
# multiplication: frozen cases
# ---------------------------------------------------------------------------


def test_product_disjoint_supports():
    a = PauliString.from_text("XI")
    b = PauliString.from_text("IX")
    assert str(a * b) == "+XX"


def test_product_xxx_zzi():
    # Qubitwise X.Z = -iY twice and X.I = X once: (-i)^2 = -1.
    a = PauliString.from_text("XXX")
    b = PauliString.from_text("ZZI")
    assert str(a * b) == "-YYX"


def test_product_self_inverse():
    for text in ("XX", "-YZ", "ZIY", "-XYZX"):
        p = PauliString.from_text(text)
        sq = p * p
        assert sq.is_identity()
        assert sq.sign == 1


def test_anticommuting_product_has_imaginary_phase():
    x = PauliString.from_text("X")
    z = PauliString.from_text("Z")
    xz = x * z
    assert xz.phase == -1j  # XZ = -iY
    with pytest.raises(ValueError):
        _ = xz.sign  # not a signed string; sign must refuse to round
    # ... but squaring it lands back on a real phase
    assert (xz * xz).sign == -1  # (XZ)^2 = -I


# ---------------------------------------------------------------------------
# multiplication: exhaustive structural checks vs dense matrices
# ---------------------------------------------------------------------------


def test_product_matches_dense_exhaustive_two_qubit():
    strs = [PauliString.from_text(t) for t in all_two_qubit_strings()]
    for a in strs:
        for b in strs:
            got = (a * b).to_matrix()
            want = a.to_matrix() @ b.to_matrix()
            assert np.allclose(got, want), f"{a} * {b}"


def test_product_associative_exhaustive_two_qubit():
    strs = [PauliString.from_text(s + a + b) for s in "+-" for a in "IXYZ" for b in "IXYZ"]
    for a in strs:
        for b in strs:
            ab = a * b
            for c in strs:
                assert (ab) * c == a * (b * c)


def test_anticommute_iff_product_order_flips_sign():
    strs = [PauliString.from_text(a + b) for a in "IXYZ" for b in "IXYZ"]
    for a in strs:
        for b in strs:
            if a.commutes(b):
                assert a * b == b * a
            else:
                assert a * b == -(b * a)


def test_commutes_matches_dense(rng=np.random.default_rng(7)):
    for _ in range(200):
        n = int(rng.integers(1, 6))
        a = PauliString(n, int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n)))
        b = PauliString(n, int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n)))
        am, bm = a.to_matrix(), b.to_matrix()
        assert a.commutes(b) == np.allclose(am @ bm, bm @ am)
        assert a.commutes(b) == b.commutes(a)


def test_product_mod_phase_drops_phase_only():
    a = PauliString.from_text("XXX")
    b = PauliString.from_text("ZZI")
    q = (a * b).mod_phase()
    assert str(a * b) == "-YYX"
    assert str(q) == "+YYX"


# ---------------------------------------------------------------------------
# hashing / immutability / accessors
# ---------------------------------------------------------------------------


def test_hashable_usable_as_dict_key():
    d = {PauliString.from_text("XI"): 0.1, PauliString.from_text("IZ"): 0.2}
    assert d[PauliString.single(2, 0, "X")] == 0.1
    assert d[PauliString.single(2, 1, "Z")] == 0.2
    assert PauliString.from_text("XI") != PauliString.from_text("-XI")


def test_immutable():
    p = PauliString.from_text("XY")
    with pytest.raises(AttributeError):
        p.x_bits = 3


def test_weight_and_support():
    p = PauliString.from_text("IXIZY")
    assert p.weight == 3
    assert p.support == (1, 3, 4)
    assert PauliString(4).weight == 0


def test_single_and_terms():
    assert str(PauliString.single(3, 1, "Y", sign=-1)) == "-IYI"


def test_constructor_validation():
    with pytest.raises(ValueError):
        PauliString(0)
    with pytest.raises(ValueError):
        PauliString(2, x_bits=4)  # bit outside the register
    with pytest.raises(ValueError):
        PauliString(2, sign=2)


# ---------------------------------------------------------------------------
# Clifford conjugation
# ---------------------------------------------------------------------------

H2 = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
S2 = np.array([[1, 0], [0, 1j]], dtype=complex)
CX2 = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)  # control = qubit 0 (most significant axis)


def embed(mat, qubits, n):
    """Oracle: embed a small unitary into an n-qubit dense operator."""
    full = np.eye(1, dtype=complex)
    dims = [2] * n
    op = mat.reshape([2] * (2 * len(qubits)))
    # brute force: build via tensor contraction on a 2^n identity
    u = np.eye(2**n, dtype=complex).reshape(dims + dims)
    src = list(qubits)
    u = np.tensordot(op, u, axes=(list(range(len(qubits), 2 * len(qubits))), src))
    # tensordot moved the acted axes to the front; restore order
    order = []
    rest = [i for i in range(n) if i not in src]
    pos = {q: i for i, q in enumerate(src)}
    for i in range(n):
        order.append(pos[i] if i in pos else len(src) + rest.index(i))
    u = np.transpose(u, order + [len(order) + k for k in range(n)])
    del full
    return u.reshape(2**n, 2**n)


@pytest.mark.parametrize(
    "gate,mat",
    [("h", H2), ("s", S2), ("sdg", S2.conj().T), ("x", X2), ("y", Y2), ("z", Z2)],
)
def test_single_qubit_conjugation_matches_dense(gate, mat):
    for text in ["X", "Y", "Z", "-X", "-Y", "-Z", "I"]:
        p = PauliString.from_text(text)
        got = p.conjugated(gate, 0).to_matrix()
        want = mat @ p.to_matrix() @ mat.conj().T
        assert np.allclose(got, want), f"{gate} on {text}"


def test_cx_conjugation_matches_dense_exhaustive():
    u = embed(CX2, [0, 1], 2)
    for text in all_two_qubit_strings():
        p = PauliString.from_text(text)
        got = p.conjugated("cx", 0, 1).to_matrix()
        want = u @ p.to_matrix() @ u.conj().T
        assert np.allclose(got, want), text
    # and with control/target swapped
    u = embed(CX2, [1, 0], 2)
    for text in all_two_qubit_strings():
        p = PauliString.from_text(text)
        got = p.conjugated("cx", 1, 0).to_matrix()
        want = u @ p.to_matrix() @ u.conj().T
        assert np.allclose(got, want), text


def test_cx_conjugation_frozen_signs():
    # The two sign-flipping cases for CX(0 -> 1).
    yy = PauliString.from_text("YY")
    assert str(yy.conjugated("cx", 0, 1)) == "-XZ"
    xz = PauliString.from_text("XZ")
    assert str(xz.conjugated("cx", 0, 1)) == "-YY"
    # A no-flip spot check.
    assert str(PauliString.from_text("XY").conjugated("cx", 0, 1)) == "+YZ"


def test_conjugation_is_group_automorphism(rng=np.random.default_rng(3)):
    # (UPU+)(UQU+) == U(PQ)U+ for random pairs and random gates.
    gates = [("h", (0,)), ("s", (1,)), ("x", (2,)), ("cx", (0, 2)), ("cx", (2, 1))]
    for _ in range(300):
        n = 3
        p = PauliString(n, int(rng.integers(0, 8)), int(rng.integers(0, 8)))
        q = PauliString(n, int(rng.integers(0, 8)), int(rng.integers(0, 8)))
        g, qs = gates[int(rng.integers(0, len(gates)))]
        lhs = p.conjugated(g, *qs) * q.conjugated(g, *qs)
        rhs = (p * q).conjugated(g, *qs)
        assert lhs == rhs
