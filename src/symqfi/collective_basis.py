"""States and operators of qubit ensembles restricted to their symmetric sector.

An ensemble of n exchangeable qubits never leaves the span of the Dicke
states |D_n^k> (k = number of excited qubits), so everything here is
represented in that (n+1)-dimensional sector, or in the tensor product of
two such sectors for bipartite probes.  This keeps all constructions exact
while avoiding the full 2^n space.

Index conventions: basis index k runs 0..n and carries the collective
z-weight m(k) = k - n/2.  Bipartite indices (q, r) are flattened row-major,
q*(n2+1) + r, which matches ``numpy.kron`` of the two partition vectors.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

NORM_TOL = 1e-12


def _require_real(name: str, x, finite: str = "finite", label: str = "") -> float:
    """x as a float, refusing a bool, a non-real x and a non-finite one with ValueError.

    The messages read "<name> must be a real number, got <label><x!r>" and
    "<name> must be <finite>, got <label><x!r>", the latter also for an int
    beyond the float range; numpy reals are accepted.  Where repr(x) raises,
    as for an int past the interpreter's digit limit, x shows as
    "<int of B bits>".
    """
    # a plain float skips the abstract-base-class test
    if type(x) is not float and (isinstance(x, bool) or not isinstance(x, numbers.Real)):
        raise ValueError(f"{name} must be a real number, got {label}{_shown(x)}")
    try:
        value = float(x)
    except OverflowError:  # an int, or a ratio of ints, beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"{name} must be {finite}, got {label}{_shown(x)}")
    return value


def _shown(x) -> str:
    """repr(x), or a bounded form where repr raises (an int past the digit limit)."""
    try:
        return repr(x)
    except ValueError:
        if isinstance(x, int):
            return f"{'-' if x < 0 else ''}<int of {x.bit_length()} bits>"
        return f"<{type(x).__name__}>"


def _require_angle(name: str, angle) -> None:
    """Refuse a bool, a non-real or a non-finite rotation angle; numpy reals are accepted."""
    _require_real("rotation angle", angle, label=f"{name}=")


def _require_integer(name: str, value) -> None:
    """Refuse a bool or a non-integer count; numpy integers are accepted."""
    # a plain int skips the abstract-base-class test (0.07 against 0.57 us a
    # call); every basis the pipeline builds comes through here
    if type(value) is not int and (isinstance(value, bool)
                                   or not isinstance(value, numbers.Integral)):
        raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class SymmetricBasis:
    """Dicke basis of an n-qubit ensemble, basis vectors |D_n^0> .. |D_n^n>."""

    n: int

    def __post_init__(self):
        _require_integer("particle count", self.n)
        if self.n < 1:
            raise ValueError(f"particle count must be a positive integer, got {self.n}")

    @property
    def dimension(self) -> int:
        return self.n + 1

    def excitations(self) -> np.ndarray:
        """Total excitation number of each basis vector."""
        return np.arange(self.n + 1)

    def z_weights(self) -> np.ndarray:
        """Collective z-weight m(k) = k - n/2 of each basis vector."""
        return np.arange(self.n + 1) - self.n / 2


@dataclass(frozen=True)
class BipartiteSymmetricBasis:
    """Product of two Dicke sectors, |D_n1^q> ⊗ |D_n2^r>, flattened row-major."""

    n1: int
    n2: int

    def __post_init__(self):
        for label, size in (("n1", self.n1), ("n2", self.n2)):
            _require_integer(f"partition size {label}", size)
            if size < 1:
                raise ValueError(f"partition size {label} must be a positive integer, got {size}")

    @property
    def n(self) -> int:
        return self.n1 + self.n2

    @property
    def dimension(self) -> int:
        return (self.n1 + 1) * (self.n2 + 1)

    def _qr(self) -> tuple[np.ndarray, np.ndarray]:
        return np.divmod(np.arange(self.dimension), self.n2 + 1)

    def excitations(self) -> np.ndarray:
        """Total excitation number q + r of each flattened basis vector."""
        q, r = self._qr()
        return q + r

    def z_weights(self) -> np.ndarray:
        """Total collective z-weight (q - n1/2) + (r - n2/2)."""
        q, r = self._qr()
        return (q - self.n1 / 2) + (r - self.n2 / 2)

    def partition1_weights(self) -> np.ndarray:
        q, _ = self._qr()
        return q - self.n1 / 2

    def partition2_weights(self) -> np.ndarray:
        _, r = self._qr()
        return r - self.n2 / 2


Basis = SymmetricBasis | BipartiteSymmetricBasis


class GeneratorLabel(Enum):
    SZ_TOTAL = "sz_total"
    SZ_PARTITION2 = "sz_partition2"


@dataclass(frozen=True, eq=False)
class PureState:
    """Unit vector over a symmetric or bipartite-symmetric basis."""

    basis: Basis
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (self.basis.dimension,):
            raise ValueError(
                f"amplitude vector has shape {amps.shape}, expected ({self.basis.dimension},)"
            )
        norm = math.sqrt(np.vdot(amps, amps).real)  # np.linalg.norm costs 4x the call overhead
        if not abs(norm - 1.0) <= NORM_TOL:  # also refuses NaN and infinite amplitudes
            raise ValueError(f"state is not normalized: ||psi|| = {norm!r}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)


def dicke_state(n: int, k: int) -> PureState:
    """Dicke state |D_n^k> with k of n qubits excited."""
    basis = SymmetricBasis(n)
    _require_integer("excitation count", k)
    if not 0 <= k <= n:
        raise ValueError(f"excitation count k={k} outside 0..{n}")
    amps = np.zeros(basis.dimension, dtype=complex)
    amps[k] = 1.0
    return PureState(basis, amps)


def ghz_state(n: int) -> PureState:
    """Equal superposition of the all-ground and all-excited states."""
    basis = SymmetricBasis(n)
    amps = np.zeros(basis.dimension, dtype=complex)
    amps[0] = amps[n] = 1.0 / math.sqrt(2.0)
    return PureState(basis, amps)


# the largest n whose binomials C(n, k) all convert to float: C(1030, 515) overflows
PLUS_MAX_N = 1029


def plus_product_state(n: int) -> PureState:
    """Product state |+>^n, binomial amplitude sqrt(C(n,k))/2^(n/2) at index k.

    Refuses n > PLUS_MAX_N, whose central binomial overflows a float.
    """
    basis = SymmetricBasis(n)
    if n > PLUS_MAX_N:
        raise ValueError(f"product_plus needs n <= {PLUS_MAX_N}: C(n, n/2) overflows a float "
                         f"at n={n}")
    amps = np.array([math.comb(n, k) for k in range(n + 1)], dtype=float)
    amps = np.sqrt(amps) / 2 ** (n / 2)
    return PureState(basis, amps.astype(complex))


@lru_cache(maxsize=None)
def _sy_eigensystem(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of the collective y-spin restricted to the Dicke sector."""
    # tridiagonal: <k+1| Sy |k> = (i/2) sqrt((k+1)(n-k)), anti-Hermitian imaginary part
    k = np.arange(n)
    c = 0.5 * np.sqrt((k + 1.0) * (n - k))
    sy = np.zeros((n + 1, n + 1), dtype=complex)
    sy[k + 1, k] = 1j * c
    sy[k, k + 1] = -1j * c
    eigvals, eigvecs = np.linalg.eigh(sy)
    eigvals.setflags(write=False)
    eigvecs.setflags(write=False)
    return eigvals, eigvecs


# a period of every rotation exp(-i theta Sy): Sy's eigenvalues are all
# integers (even n) or all half-integers (odd n)
_PERIOD = 4.0 * math.pi


def _rotation_phases(theta: np.ndarray, eigvals: np.ndarray) -> np.ndarray:
    """exp(-i theta lambda) for each finite angle of theta and eigenvalue of Sy, shape (G, n+1).

    An angle with |theta| >= 4 pi is first reduced to
    2 atan2(sin(theta/2), cos(theta/2)), theta modulo 4 pi to within an ulp
    of 2 pi, as libm reduces the arguments of sin and cos exactly.  Taken
    as it is, the product theta lambda would round to ulp(theta n/2), 1e-8
    rad at theta = 1e8, and lose every digit of the rotation from about
    theta = 1e16.  Smaller angles enter as they are, bit for bit.
    """
    angles = theta.tolist()  # tested in Python: below numpy's call overhead at a few angles
    if any(abs(t) >= _PERIOD for t in angles):
        theta = np.array([2.0 * math.atan2(math.sin(t / 2), math.cos(t / 2))
                          if abs(t) >= _PERIOD else t for t in angles], dtype=float)
    return np.exp(-1j * theta[:, None] * eigvals)


def wigner_d_matrix(n: int, angle: float) -> np.ndarray:
    """Collective y-rotation matrix between Dicke states.

    Entry [k', k] is <D_n^k'| exp(-i*angle*Sy) |D_n^k>.  The result is real
    and orthogonal; at angle 0 it is the identity, and the diagonal corner
    d[0, 0] = cos(angle/2)^n is positive for angle in (0, pi).

    Evaluated through the eigendecomposition of the tridiagonal Sy block,
    which stays numerically stable for large n (the textbook alternating
    binomial sum does not), with the phases of _rotation_phases, so any
    finite angle gives an orthogonal matrix.
    """
    _require_integer("particle count", n)
    if n < 1:
        raise ValueError(f"need at least one qubit, got n={n}")
    _require_angle("angle", angle)
    eigvals, eigvecs = _sy_eigensystem(n)
    phases = _rotation_phases(np.array([angle], dtype=float), eigvals)[0]
    return np.ascontiguousarray(((eigvecs * phases) @ eigvecs.conj().T).real)


def _rotated(amps: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Real Dicke-basis amplitudes rotated about y by each angle of theta, shape (G, n+1).

    A phase product in the Sy eigenbasis (_rotation_phases), one
    (1, n+1) @ (n+1, n+1) product per angle, so a row's bits do not depend
    on the rest of the stack (one (G, n+1) GEMM would tie them to G).  An
    angle of exactly 0 returns amps.
    """
    if not np.count_nonzero(theta):  # scan's unrotated probes: nothing to rotate
        return amps[None, :].repeat(len(theta), axis=0)
    eigvals, eigvecs = _sy_eigensystem(len(amps) - 1)
    phased = _rotation_phases(theta, eigvals) * (eigvecs.conj().T @ amps)
    rotated = (phased[:, None, :] @ eigvecs.T)[:, 0, :].real
    rotated[theta == 0.0] = amps
    return rotated


def _rotated_amplitudes(amps: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """_rotated of any amplitudes, real and imaginary parts apart (Wigner-d is real).

    Real amplitudes give a real (G, n+1) stack, others a complex one.
    """
    rotated = _rotated(amps.real, theta)
    # count_nonzero: a fourth of any()'s call overhead, paid per factor per stack
    return rotated + 1j * _rotated(amps.imag, theta) if np.count_nonzero(amps.imag) else rotated


def rotate_y(state: PureState, angle: float) -> PureState:
    """Rotate a state about the collective y-axis.

    A single-partition state becomes a RotatedState, which keeps its
    unrotated base and the angle; rotating one rotates its base once, by
    the summed angle.  On a bipartite basis the rotation factorizes: a
    ProductState rotates each factor and stays one, any other state takes a
    Wigner-d block per part.
    """
    _require_angle("angle", angle)
    if angle == 0.0:
        return state
    if isinstance(state, ProductState):
        return ProductState(*(rotate_y(part, angle) for part in state.parts))
    if isinstance(state, RotatedState):
        state, angle = state.base, state.angle + angle
    basis = state.basis
    if isinstance(basis, SymmetricBasis):
        return RotatedState(state, angle)
    d1 = wigner_d_matrix(basis.n1, angle)
    d2 = wigner_d_matrix(basis.n2, angle)
    block = state.amplitudes.reshape(basis.n1 + 1, basis.n2 + 1)
    return PureState(basis, (d1 @ block @ d2.T).reshape(basis.dimension))


@dataclass(frozen=True, eq=False, init=False)
class RotatedState(PureState):
    """Single-partition state rotated about y that keeps its unrotated base and the angle.

    Its amplitudes are _rotated_amplitudes of the base's, the kernel the
    rotation optimizer shares, so the pipeline can decide exact properties
    of the probe, such as its parity, on the base.
    """

    base: PureState
    angle: float

    def __init__(self, base: PureState, angle: float):
        if not isinstance(base.basis, SymmetricBasis):
            raise ValueError("RotatedState expects a single-partition base")
        _require_angle("angle", angle)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "angle", float(angle))
        super().__init__(base.basis,
                         _rotated_amplitudes(base.amplitudes, np.array([self.angle]))[0])


@dataclass(frozen=True, eq=False, init=False)
class ProductState(PureState):
    """Bipartite product state that keeps its two factors and computes its amplitudes from them."""

    parts: tuple[PureState, PureState]

    def __init__(self, a: PureState, b: PureState):
        if not isinstance(a.basis, SymmetricBasis) or not isinstance(b.basis, SymmetricBasis):
            raise ValueError("ProductState expects two single-partition states")
        object.__setattr__(self, "parts", (a, b))
        # np.kron of two vectors, bit for bit, without its general n-d overhead
        super().__init__(BipartiteSymmetricBasis(a.basis.n, b.basis.n),
                         (a.amplitudes[:, None] * b.amplitudes).ravel())


def generator(basis: Basis, label: GeneratorLabel) -> np.ndarray:
    """Diagonal of the signal generator on a basis, one weight per basis vector.

    SZ_TOTAL is the collective z-spin of all qubits, basis.z_weights(), and
    exists on every basis; SZ_PARTITION2 acts on the second partition only,
    basis.partition2_weights(), and requires a bipartite basis.  The
    pipeline reads those weights from the basis directly; GeneratorLabel,
    generator and max_qfi_bound are kept for the benchmark's QFI-bound
    oracle until ROADMAP item 1.
    """
    if label is GeneratorLabel.SZ_TOTAL:
        return basis.z_weights()
    if label is GeneratorLabel.SZ_PARTITION2:
        if not isinstance(basis, BipartiteSymmetricBasis):
            raise ValueError("SZ_PARTITION2 requires a bipartite basis")
        return basis.partition2_weights()
    raise ValueError(f"unknown generator label {label!r}")
