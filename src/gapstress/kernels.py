"""Free-space elasticity kernels and the paired singular test fields.

The Kelvin matrix here is normalized so the Lame operator applied to a
column gives +delta times that basis vector; the traction flux of a column
over any contour enclosing the pole, taken with the outward normal, is the
corresponding unit vector.  Gradients are hand-derived closed forms; finite
differences appear only in tests.

The pair field q_j sums four of these nuclei: the Kelvin columns at the
poles p1 = -a and p2 = a with opposite signs, plus two centers of dilatation
(j = 1) or rotation (j = 2).  It is defined here once, by its
Kolosov-Muskhelishvili potentials (Muskhelishvili, *Some Basic Problems of
the Mathematical Theory of Elasticity*): with z = x1 + i x2,

    phi = k L,   psi = -kappa conj(k) L + (a k + c) P,
    L = log(z + a) - log(z - a),   P = 1/(z + a) + 1/(z - a),

and (kappa, k, c) from ``_coefficients``.  The two loads differ only in
these coefficients, so each field is split in two: ``_PairTerms`` evaluates
the load-independent terms at one point set once (the pole guard, z and
1/w), and its ``stress``/``displacement`` assemble one load's field from
them; ``_EdgeTerms`` does the same for the edge-traction resultant (the
differences of L and P, with their logs and arctangents, and the
z conj(phi') polynomial and denominator), and ``_FibreTerms`` for the
primitives of the stress along vertical fibres, from which the dual's cell
term integrates each fibre exactly.  A caller that needs several
loads or both fields at one point set builds the terms once;
``singular_displacement``, ``singular_stress`` and ``_edge_resultant`` are
the terms and one assembly.  The individual nuclei serve ``gapstress
kernel-eval`` and, in the tests, as the oracle for the potentials.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .elasticity import LameMaterial, Matrix2, SymTensor2, _side_by_side, derived_constants
from .geometry import GapGeometry

__all__ = [
    "POLE_EXCLUSION_RADIUS",
    "KERNEL_NAMES",
    "KernelContext",
    "kelvin_matrix",
    "kernel_displacement",
    "kernel_gradient",
    "singular_displacement",
    "singular_stress",
]

POLE_EXCLUSION_RADIUS = 1e-12

KERNEL_NAMES = ("kelvin1", "kelvin2", "radial", "rotational")


def _split(x) -> tuple[np.ndarray, np.ndarray]:
    pts = np.asarray(x, dtype=float)
    if pts.shape[-1] != 2:
        raise ValueError(f"points must have trailing dimension 2, got shape {pts.shape}")
    return pts[..., 0], pts[..., 1]


def _guarded_r2(x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    r2 = x1 * x1 + x2 * x2
    if (r2 < POLE_EXCLUSION_RADIUS * POLE_EXCLUSION_RADIUS).any():
        raise ValueError("kernel evaluated within the pole exclusion radius")
    return r2


def kelvin_matrix(x, mat: LameMaterial) -> Matrix2:
    """Kelvin matrix G_ij(x) = alpha1 delta_ij ln|x| - alpha2 x_i x_j / |x|^2."""
    x1, x2 = _split(x)
    r2 = _guarded_r2(x1, x2)
    cst = derived_constants(mat)
    logr = 0.5 * np.log(r2)
    return Matrix2(
        cst.alpha1 * logr - cst.alpha2 * x1 * x1 / r2,
        -cst.alpha2 * x1 * x2 / r2,
        -cst.alpha2 * x1 * x2 / r2,
        cst.alpha1 * logr - cst.alpha2 * x2 * x2 / r2,
    )


def kernel_displacement(which: str, x, mat: LameMaterial) -> np.ndarray:
    """Displacement of one nucleus of strain; shape (..., 2)."""
    x1, x2 = _split(x)
    r2 = _guarded_r2(x1, x2)
    if which == "kelvin1":
        g = kelvin_matrix(x, mat)
        return np.stack((g.a11, g.a21), axis=-1)
    if which == "kelvin2":
        g = kelvin_matrix(x, mat)
        return np.stack((g.a12, g.a22), axis=-1)
    if which == "radial":
        return np.stack((x1 / r2, x2 / r2), axis=-1)
    if which == "rotational":
        return np.stack((-x2 / r2, x1 / r2), axis=-1)
    raise ValueError(f"unknown kernel {which!r}, expected one of {KERNEL_NAMES}")


def kernel_gradient(which: str, x, mat: LameMaterial) -> Matrix2:
    """Closed-form displacement gradient of one nucleus; entry (i, j) is d_j u_i."""
    x1, x2 = _split(x)
    r2 = _guarded_r2(x1, x2)
    r4 = r2 * r2
    if which in ("kelvin1", "kelvin2"):
        cst = derived_constants(mat)
        a1, a2 = cst.alpha1, cst.alpha2
        if which == "kelvin1":
            d11 = a1 * x1 / r2 - a2 * (2.0 * x1 / r2 - 2.0 * x1 ** 3 / r4)
            d12 = a1 * x2 / r2 + 2.0 * a2 * x1 * x1 * x2 / r4
            d21 = -a2 * (x2 / r2 - 2.0 * x1 * x1 * x2 / r4)
            d22 = -a2 * (x1 / r2 - 2.0 * x1 * x2 * x2 / r4)
        else:
            d11 = -a2 * (x2 / r2 - 2.0 * x1 * x1 * x2 / r4)
            d12 = -a2 * (x1 / r2 - 2.0 * x1 * x2 * x2 / r4)
            d21 = a1 * x1 / r2 + 2.0 * a2 * x1 * x2 * x2 / r4
            d22 = a1 * x2 / r2 - a2 * (2.0 * x2 / r2 - 2.0 * x2 ** 3 / r4)
        return Matrix2(d11, d12, d21, d22)
    if which == "radial":
        return Matrix2(
            1.0 / r2 - 2.0 * x1 * x1 / r4,
            -2.0 * x1 * x2 / r4,
            -2.0 * x1 * x2 / r4,
            1.0 / r2 - 2.0 * x2 * x2 / r4,
        )
    if which == "rotational":
        return Matrix2(
            2.0 * x1 * x2 / r4,
            -1.0 / r2 + 2.0 * x2 * x2 / r4,
            1.0 / r2 - 2.0 * x1 * x1 / r4,
            -2.0 * x1 * x2 / r4,
        )
    raise ValueError(f"unknown kernel {which!r}, expected one of {KERNEL_NAMES}")


@dataclass(frozen=True)
class KernelContext:
    """Material plus the pole offset a of one gap configuration: the pair
    field's poles are (-a, 0) and (a, 0).  ``a`` may also be an array that
    broadcasts against the points' leading shape, one offset per point, so
    one evaluation serves points of several gap widths."""

    material: LameMaterial
    a: float | np.ndarray
    alpha2: float = field(init=False)

    def __post_init__(self) -> None:
        if not (np.asarray(self.a) > 0.0).all():
            raise ValueError(f"pole offset must be positive, got a={self.a}")
        object.__setattr__(self, "alpha2", derived_constants(self.material).alpha2)

    @classmethod
    def from_geometry(cls, geom: GapGeometry, mat: LameMaterial) -> "KernelContext":
        return cls(material=mat, a=geom.a)


def _coefficients(ctx: KernelContext, j: int) -> tuple[float, complex, complex]:
    """(kappa, k_j, c_j) of q_j's Kolosov-Muskhelishvili potentials.

    kappa = (lam + 3 mu) / (lam + mu) is the plane-strain Kolosov constant,
    k_j = e_j / (2 pi (1 + kappa)) the point-force weight and c_j = -2 mu
    alpha2 a e_j the weight of the two nuclei, with e_1 = 1 and e_2 = i.
    """
    if j not in (1, 2):
        raise ValueError(f"loading index j must be 1 or 2, got {j}")
    mat = ctx.material
    kappa = (mat.lam + 3.0 * mat.mu) / (mat.lam + mat.mu)
    e_j = 1.0 if j == 1 else 1j
    k = e_j / (2.0 * np.pi * (1.0 + kappa))
    c = -2.0 * mat.mu * ctx.alpha2 * ctx.a * e_j
    return kappa, k, c


class _PairTerms:
    """The load-independent terms of the pair fields at one point set.

    The loads differ only in the coefficients (k_j, c_j), so the pole guard,
    z and 1/w are evaluated once here; ``stress`` (or its second column
    alone, ``traction``) and ``displacement`` assemble one load's field
    from them.  The terms only one field reads
    (1/w^2, z^2 + a^2 and conj(z) for the stress, P and Re L for the
    displacement) are evaluated, a field's at once, on the first call of
    that field and kept for the other load's: a caller of one field of one
    load computes each once, as it would without them, and a caller of both
    loads once, not twice.
    """

    def __init__(self, ctx: KernelContext, x) -> None:
        x1, x2 = _split(x)
        a = ctx.a
        self._ctx, self._x1 = ctx, x1
        # |x1| - a is -(x1 + a) for x1 < 0 exactly, so this is the squared
        # distance to the nearer pole, and the only one the guard needs
        self._r2_near = _guarded_r2(np.abs(x1) - a, x2)
        self.z = x1 + 1j * x2
        self.iw = 1.0 / ((self.z + a) * (self.z - a))
        self._for_stress = self._for_displacement = None

    def _displacement_terms(self) -> tuple[np.ndarray, np.ndarray]:
        """Re L and P, evaluated on the first call."""
        if self._for_displacement is None:
            x1, z = self._x1, self.z
            # Re L = log|z + a| - log|z - a| = +-1/2 log1p(4 a |x1| / r^2), r the
            # distance to the nearer pole: accurate far from the gap and near a pole
            re_L = np.copysign(0.5 * np.log1p(4.0 * self._ctx.a * np.abs(x1) / self._r2_near), x1)
            self._for_displacement = re_L, 2.0 * z * self.iw
        return self._for_displacement

    def _stress_terms(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """1/w^2, z^2 + a^2 and conj(z), evaluated on the first call."""
        if self._for_stress is None:
            a, z = self._ctx.a, self.z
            self._for_stress = self.iw * self.iw, z * z + a * a, np.conj(z)
        return self._for_stress

    def displacement(self, j: int) -> np.ndarray:
        """q_j, shape (..., 2); see ``singular_displacement``."""
        kappa, k, c = _coefficients(self._ctx, j)
        a, z, iw = self._ctx.a, self.z, self.iw
        re_L, P = self._displacement_terms()
        phi_p = (-2.0 * a * k) * iw
        v = 2.0 * kappa * k * re_L - z * np.conj(phi_p) - np.conj((a * k + c) * P)
        v /= 2.0 * self._ctx.material.mu
        return _side_by_side(v.real, v.imag)

    def _trace_dev(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        """sigma11 + sigma22 and sigma22 - sigma11 + 2 i sigma12 of q_j."""
        kappa, k, c = _coefficients(self._ctx, j)
        a, z, iw = self._ctx.a, self.z, self.iw
        iw2, z2_a2, zb = self._stress_terms()
        phi_p = (-2.0 * a * k) * iw
        phi_pp = (4.0 * a * k) * z * iw2
        psi_p = (2.0 * a * kappa * np.conj(k)) * iw - (2.0 * (a * k + c)) * z2_a2 * iw2
        return 4.0 * phi_p.real, 2.0 * (zb * phi_pp + psi_p)

    def stress(self, j: int) -> SymTensor2:
        """Stress of q_j; see ``singular_stress``."""
        tr, dev = self._trace_dev(j)
        return SymTensor2(0.5 * (tr - dev.real), 0.5 * dev.imag, 0.5 * (tr + dev.real))

    def traction(self, j: int) -> SymTensor2:
        """sigma(q_j) e_2 as the stress's sigma12 and sigma22, sigma11 None."""
        tr, dev = self._trace_dev(j)
        return SymTensor2(None, 0.5 * dev.imag, 0.5 * (tr + dev.real))


def singular_displacement(ctx: KernelContext, j: int, x) -> np.ndarray:
    """The singular test field q_j, shape (..., 2).

    q_1 pairs opposite horizontal point forces at p1, p2 with two centers of
    dilatation; q_2 pairs vertical point forces with two centers of rotation.
    Both vanish at the origin and decay like sqrt(eps) away from the gap.
    With z = x1 + i x2, 2 mu (u_1 + i u_2) = kappa phi - z conj(phi') -
    conj(psi); the imaginary parts of L cancel, which leaves
    2 kappa k Re L - z conj(phi') - conj((a k + c) P).
    """
    return _PairTerms(ctx, x).displacement(j)


def singular_stress(ctx: KernelContext, j: int, x) -> SymTensor2:
    """Stress of q_j; divergence-free away from the two poles.

    sigma11 + sigma22 = 4 Re phi' and sigma22 - sigma11 + 2 i sigma12 =
    2 (conj(z) phi'' + psi'), with phi' = -2 a k / w, phi'' = 4 a k z / w^2
    and psi' = 2 a kappa conj(k) / w - 2 (a k + c) (z^2 + a^2) / w^2, where
    w = (z + a)(z - a).
    """
    return _PairTerms(ctx, x).stress(j)


class _EdgeTerms:
    """The load-independent terms of the traction resultant on the line at
    height y, from x = 0 to x; x and y broadcast together.

    The resultant t_1 + i t_2 is i [Phi(z) - Phi(i y)] with z = x + i y and
    Phi = phi + z conj(phi') + conj(psi) (Muskhelishvili).  Each difference
    is written with its factor x explicit, which keeps it accurate near 0.
    dL = L(z) - L(i y), dP = P(z) - P(i y) and the polynomial and
    denominator of the z conj(phi') difference are shared by the loads.
    """

    def __init__(self, ctx: KernelContext, x: np.ndarray, y: np.ndarray) -> None:
        a = ctx.a
        self._ctx, self._x = ctx, x
        z = x + 1j * y
        w = 1j * y
        z_m, w_p = z - a, w + a
        u = -2.0 * a * x / (z_m * w_p)
        # log1p(u) = L(z) - L(w); numpy's complex log1p loses the real part's
        # relative accuracy for tiny |u|
        self.dL = (0.5 * np.log1p(u.real * (2.0 + u.real) + u.imag ** 2)
                   + 1j * np.arctan2(u.imag, 1.0 + u.real))
        self.dP = -x / ((z + a) * w_p) - x / (z_m * (w - a))
        zb, wb = np.conj(z), np.conj(w)
        self.zphi_num = 3.0 * y * y + 1j * y * x + a * a
        self.zphi_den = (zb * zb - a * a) * (wb * wb - a * a)

    def resultant(self, j: int) -> np.ndarray:
        """The resultant of q_j, with a last axis of 2 added."""
        kappa, k, c = _coefficients(self._ctx, j)
        a = self._ctx.a
        d_zphi = np.conj(k) * 2.0 * a * self._x * self.zphi_num / self.zphi_den
        d_psi = -kappa * np.conj(k) * self.dL + (a * k + c) * self.dP
        r = 1j * (k * self.dL + d_zphi + np.conj(d_psi))
        return _side_by_side(r.real, r.imag)


class _FibreTerms(_PairTerms):
    """The pair terms at both ends of the vertical fibres from (x, y0) up to
    (x, y1), upper ends first (x, y0, y1 and the context's pole offset
    broadcast together, to one dimension), plus the load-independent terms
    of the stress's primitives along them.

    On a vertical line dz = i dy, conj(z) = 2x - z and y = -i (z - x), so
    with T = sigma11 + sigma22 and D = sigma22 - sigma11 + 2 i sigma12, and
    Phi1, Psi1 primitives of phi and psi,

        int T dy = 4 Im phi,          int D dy = -2 i [conj(z) phi' + phi + psi],
        int y T dy = -4 Re[(z - x) phi - Phi1],
        int y D dy = -2 [g phi' - (3x - 2z) phi - 2 Phi1 + (z - x) psi - Psi1],

    with g = (z - x)(2x - z), Phi1 = k I, Psi1 = -kappa conj(k) I +
    (a k + c)(log(z + a) + log(z - a)) and I = (z + a) log(z + a) -
    (z - a) log(z - a).  Principal logs: a fibre end on the real axis
    between the poles must carry y = +0, the upper side of L's cut.
    """

    def __init__(self, ctx: KernelContext, x, y0, y1) -> None:
        x, y0, y1 = np.broadcast_arrays(x, y0, y1)
        self.n = x.size
        # the stress is read at the upper ends alone
        self._upper = _PairTerms(ctx, _side_by_side(x, y1))
        if np.ndim(ctx.a):
            # both ends of a fibre have its pole offset
            a = np.broadcast_to(ctx.a, x.shape)
            ctx = KernelContext(ctx.material, np.concatenate((a, a)))
        super().__init__(ctx, _side_by_side(np.concatenate((x, x)), np.concatenate((y1, y0))))
        a = ctx.a
        log_p, log_m = np.log(self.z + a), np.log(self.z - a)
        self.L = log_p - log_m
        self.I = (self.z + a) * log_p - (self.z - a) * log_m
        self.log_w = log_p + log_m
        # on the vertical line z - x = i y, 2x - z = conj(z) and 3x - 2z = conj(z) - i y
        iy, zb = 1j * self.z.imag, np.conj(self.z)
        self._line = iy, zb, iy * zb, zb - iy

    def upper_stress(self, j: int) -> SymTensor2:
        """Stress of q_j at the upper ends (x, y1)."""
        return self._upper.stress(j)

    def moments(self, j: int) -> tuple[SymTensor2, SymTensor2]:
        """The integrals of sigma(q_j) and of y sigma(q_j) in y along the
        fibres: the primitives of T, D, y T and y D at the upper ends minus
        those at the lower ends."""
        kappa, k, c = _coefficients(self._ctx, j)
        a, z, iw = self._ctx.a, self.z, self.iw
        iy, zb, iy_zb, zb_iy = self._line
        phi, akc = k * self.L, a * k + c
        phi_p = (-2.0 * a * k) * iw
        psi = -kappa * np.conj(k) * self.L + (2.0 * akc) * z * iw
        Phi1 = k * self.I
        Psi1 = -kappa * np.conj(k) * self.I + akc * self.log_w
        n = self.n
        T, D, yT, yD = (v[:n] - v[n:] for v in (
            4.0 * phi.imag,
            -2j * (zb * phi_p + phi + psi),
            -4.0 * (iy * phi - Phi1).real,
            -2.0 * (iy_zb * phi_p - zb_iy * phi - 2.0 * Phi1 + iy * psi - Psi1)))
        return (SymTensor2(0.5 * (T - D.real), 0.5 * D.imag, 0.5 * (T + D.real)),
                SymTensor2(0.5 * (yT - yD.real), 0.5 * yD.imag, 0.5 * (yT + yD.real)))


def _edge_resultant(ctx: KernelContext, j: int, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Traction resultant int_0^x sigma(q_j)(s, y) e_2 ds on the line at
    height y; x and y broadcast together, and a last axis of 2 is added."""
    return _EdgeTerms(ctx, x, y).resultant(j)


def _centre_force(a: float, L2: float) -> tuple[float, float]:
    """Force int sigma(q_j)(0, y) e_1 dy of q_j, poles at +-a, across x = 0,
    |y| <= L2, as a multiple of e_j, and its terms' magnitudes: it is
    -i [Phi(i L2) - Phi(-i L2)] as in ``_EdgeTerms``, plus e_j, the point force
    of L's cut between the poles.  On x = 0, L = -2 i atan(a / y), and the rest
    of Phi is a multiple of conj(2 a k + c) = 0.  A correction must add its own
    force across x = 0: the roadmap's Airy correction adds (4 L2 C(0), -2 L2 s(0) + 4 L2^3 D'(0)).
    """
    terms = (1.0, -2.0 / np.pi * np.arctan(a / L2))
    return sum(terms), sum(map(abs, terms))
