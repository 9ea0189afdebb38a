"""n-qubit Pauli operators encoded as a pair of integer bitmasks.

A Pauli operator on ``n`` qubits is written ``i^e * X^x Z^z`` where ``x`` and
``z`` are n-bit masks (bit ``q`` refers to qubit ``q``) and ``e`` is a phase
exponent mod 4.  The single-qubit letters map to bit pairs as

    I -> (x=0, z=0)    X -> (1, 0)    Z -> (0, 1)    Y -> (1, 1)

with the convention ``Y = i * X Z``, so a mask pair with both bits set and
``e = 0`` *is* ``+Y``, not ``XZ``.  Products are computed exactly in the full
Pauli group: multiplying anticommuting operators can pass through a factor of
``+/-i`` and the class keeps that exponent internally so that multiplication
stays associative.  ``sign`` is only defined for Hermitian elements (phase
``+1`` or ``-1``) and raises on the imaginary intermediates.

Text form: an optional leading ``+``/``-`` followed by one letter per qubit,
*leftmost letter = qubit 0*.  So ``"-YYX"`` is ``-(Y_0 Y_1 X_2)``.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

_LETTER_TO_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_BITS_TO_LETTER = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}

# Dense 2x2 factors, used only by to_matrix() for cross-checks.
_MATS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


class PauliString:
    """Immutable n-qubit Pauli operator with an exact group product.

    Instances are hashable and compare by value, so they can be used as
    dictionary keys (e.g. for noise-channel rate tables).
    """

    __slots__ = ("n", "x_bits", "z_bits", "_phase_exp")

    def __init__(self, n: int, x_bits: int = 0, z_bits: int = 0, sign: int = 1):
        if n < 1:
            raise ValueError(f"need at least one qubit, got n={n}")
        mask = (1 << n) - 1
        if x_bits & ~mask or z_bits & ~mask:
            raise ValueError(f"bitmask exceeds {n} qubits")
        if sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {sign!r}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "x_bits", x_bits)
        object.__setattr__(self, "z_bits", z_bits)
        object.__setattr__(self, "_phase_exp", 0 if sign == 1 else 2)

    # -- construction helpers -------------------------------------------------

    @classmethod
    def _raw(cls, n: int, x_bits: int, z_bits: int, phase_exp: int) -> "PauliString":
        p = cls.__new__(cls)
        object.__setattr__(p, "n", n)
        object.__setattr__(p, "x_bits", x_bits)
        object.__setattr__(p, "z_bits", z_bits)
        object.__setattr__(p, "_phase_exp", phase_exp & 3)
        return p

    @classmethod
    def single(cls, n: int, qubit: int, letter: str, sign: int = 1) -> "PauliString":
        """A one-letter operator, identity elsewhere."""
        if not 0 <= qubit < n:
            raise ValueError(f"qubit {qubit} out of range for n={n}")
        xb, zb = _LETTER_TO_BITS[letter.upper()]
        return cls(n, xb << qubit, zb << qubit, sign)

    @classmethod
    def from_text(cls, text: str) -> "PauliString":
        """Parse ``"[+-]?[IXYZ]+"``; leftmost letter is qubit 0."""
        s = text.strip()
        sign = 1
        if s and s[0] in "+-−":
            sign = 1 if s[0] == "+" else -1
            s = s[1:]
        if not s:
            raise ValueError(f"no Pauli letters in {text!r}")
        x_bits = z_bits = 0
        for q, ch in enumerate(s):
            try:
                xb, zb = _LETTER_TO_BITS[ch.upper()]
            except KeyError:
                raise ValueError(f"bad Pauli letter {ch!r} in {text!r}") from None
            x_bits |= xb << q
            z_bits |= zb << q
        return cls(len(s), x_bits, z_bits, sign)

    # -- basic accessors ------------------------------------------------------

    def __setattr__(self, *_):
        raise AttributeError("PauliString is immutable")

    @property
    def sign(self) -> int:
        """+1 or -1.  Raises if the phase is imaginary (non-Hermitian)."""
        e = self._phase_exp
        if e == 0:
            return 1
        if e == 2:
            return -1
        raise ValueError(
            "phase is imaginary (i^%d); this element of the Pauli group is "
            "not a signed Pauli string" % e
        )

    @property
    def phase(self) -> complex:
        """The exact phase i^e as a complex number."""
        return (1, 1j, -1, -1j)[self._phase_exp]

    def x_bit(self, q: int) -> int:
        return (self.x_bits >> q) & 1

    def z_bit(self, q: int) -> int:
        return (self.z_bits >> q) & 1

    def letter(self, q: int) -> str:
        """The single-qubit letter acting on qubit ``q``."""
        return _BITS_TO_LETTER[(self.x_bit(q), self.z_bit(q))]

    @property
    def weight(self) -> int:
        """Number of qubits acted on non-trivially."""
        return (self.x_bits | self.z_bits).bit_count()

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(q for q in range(self.n) if (self.x_bits | self.z_bits) >> q & 1)

    def is_identity(self) -> bool:
        return self.x_bits == 0 and self.z_bits == 0

    def __iter__(self) -> Iterator[str]:
        return (self.letter(q) for q in range(self.n))

    # -- group structure ------------------------------------------------------

    def __mul__(self, other: "PauliString") -> "PauliString":
        """Exact operator product ``self @ other`` (self acts first in text,
        i.e. matrix product self . other), tracking powers of i."""
        if not isinstance(other, PauliString):
            return NotImplemented
        if self.n != other.n:
            raise ValueError(f"size mismatch: {self.n} vs {other.n}")
        x1, z1, x2, z2 = self.x_bits, self.z_bits, other.x_bits, other.z_bits
        # Letter masks of each factor.
        ax, ay, az = x1 & ~z1, x1 & z1, z1 & ~x1
        bx, by, bz = x2 & ~z2, x2 & z2, z2 & ~x2
        # Qubits contributing +i resp. -i to the product (cyclic XY=iZ etc.).
        plus = (ax & by) | (ay & bz) | (az & bx)
        minus = (ay & bx) | (az & by) | (ax & bz)
        e = self._phase_exp + other._phase_exp + plus.bit_count() - minus.bit_count()
        return PauliString._raw(self.n, x1 ^ x2, z1 ^ z2, e)

    def commutes(self, other: "PauliString") -> bool:
        """True when the two operators commute (symplectic inner product 0)."""
        if self.n != other.n:
            raise ValueError(f"size mismatch: {self.n} vs {other.n}")
        a = (self.x_bits & other.z_bits).bit_count()
        b = (self.z_bits & other.x_bits).bit_count()
        return (a + b) % 2 == 0

    def __neg__(self) -> "PauliString":
        return PauliString._raw(self.n, self.x_bits, self.z_bits, self._phase_exp + 2)

    def with_sign(self, sign: int) -> "PauliString":
        return PauliString(self.n, self.x_bits, self.z_bits, sign)

    def mod_phase(self) -> "PauliString":
        return PauliString._raw(self.n, self.x_bits, self.z_bits, 0)

    # -- Clifford conjugation -------------------------------------------------

    def conjugated(self, gate: str, *qubits: int) -> "PauliString":
        """Return ``U P U^dagger`` for a named Clifford gate U.

        Supported gates: ``h``, ``s``, ``sdg``, ``x``, ``y``, ``z``, ``cx``.
        """
        x, z, e = self.x_bits, self.z_bits, self._phase_exp
        g = gate.lower()
        if g in ("h", "s", "sdg", "x", "y", "z"):
            (q,) = qubits
            b = 1 << q
            xq, zq = x & b, z & b
            if g == "h":
                # X <-> Z, Y -> -Y
                if xq and zq:
                    e += 2
                x ^= xq ^ zq
                z ^= xq ^ zq
            elif g == "s":
                # X -> Y, Y -> -X, Z -> Z
                if xq and zq:
                    e += 2
                z ^= xq
            elif g == "sdg":
                # X -> -Y, Y -> X
                if xq and not zq:
                    e += 2
                z ^= xq
            elif g == "x":
                if zq:
                    e += 2
            elif g == "z":
                if xq:
                    e += 2
            elif g == "y":
                if bool(xq) != bool(zq):
                    e += 2
        elif g in ("cx", "cnot"):
            c, t = qubits
            bc, bt = 1 << c, 1 << t
            xc, zc = bool(x & bc), bool(z & bc)
            xt, zt = bool(x & bt), bool(z & bt)
            if xc and zt and (xt == zc):
                e += 2
            if xc:
                x ^= bt
            if zt:
                z ^= bc
        else:
            raise ValueError(f"unknown Clifford gate {gate!r}")
        return PauliString._raw(self.n, x, z, e)

    # -- misc -----------------------------------------------------------------

    def to_matrix(self) -> np.ndarray:
        """Dense matrix (kron ordering: qubit 0 is the most significant axis).

        Only sensible for small n; guarded at 12 qubits.
        """
        if self.n > 12:
            raise ValueError("to_matrix is for small operators only (n <= 12)")
        m = np.array([[self.phase]], dtype=complex)
        for q in range(self.n):
            m = np.kron(m, _MATS[self.letter(q)])
        return m

    def key(self) -> tuple[int, int]:
        """Phase-free key (x_bits, z_bits), e.g. for rate dictionaries."""
        return (self.x_bits, self.z_bits)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PauliString):
            return NotImplemented
        return (
            self.n == other.n
            and self.x_bits == other.x_bits
            and self.z_bits == other.z_bits
            and self._phase_exp == other._phase_exp
        )

    def __hash__(self) -> int:
        return hash((self.n, self.x_bits, self.z_bits, self._phase_exp))

    def __str__(self) -> str:
        e = self._phase_exp
        prefix = {0: "+", 1: "+i", 2: "-", 3: "-i"}[e]
        return prefix + "".join(self.letter(q) for q in range(self.n))

    def __repr__(self) -> str:
        return f"PauliString.from_text({str(self)!r})"
