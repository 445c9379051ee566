"""Plane-strain isotropic elasticity algebra on 2x2 tensors.

Tensor components are stored as plain floats or as numpy arrays of a common
shape, so every operation here broadcasts over batched point evaluations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

__all__ = [
    "LameMaterial",
    "Matrix2",
    "SymTensor2",
    "DerivedConstants",
    "stress_from_gradient",
    "compliance_energy",
    "compliance_contract",
    "derived_constants",
    "energy_density",
]


@dataclass(frozen=True)
class LameMaterial:
    """Isotropic material described by its two Lame constants.

    ``lam`` is the first Lame constant (may be negative), ``mu`` the shear
    modulus.  Strong ellipticity in plane strain requires mu > 0 and
    lam + mu > 0; the constructor rejects anything else.
    """

    lam: float
    mu: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.lam) and np.isfinite(self.mu)):
            raise ValueError(f"Lame constants must be finite, got lam={self.lam}, mu={self.mu}")
        if not (self.mu > 0.0):
            raise ValueError(f"shear modulus must be positive, got mu={self.mu}")
        if not (self.lam + self.mu > 0.0):
            raise ValueError(
                f"strong ellipticity needs lam + mu > 0, got lam={self.lam}, mu={self.mu}"
            )


def _side_by_side(a, b) -> np.ndarray:
    """a and b on a new last axis: np.stack((a, b), axis=-1) without its
    checks, which cost as much as the copy on a few hundred points."""
    return np.concatenate((a[..., None], b[..., None]), axis=-1)


@dataclass(frozen=True)
class Matrix2:
    """General 2x2 matrix with float or broadcastable array entries."""

    a11: Any
    a12: Any
    a21: Any
    a22: Any

    def sym(self) -> "SymTensor2":
        off = 0.5 * (self.a12 + self.a21)
        return SymTensor2(self.a11, off, self.a22)

    def trace(self) -> Any:
        return self.a11 + self.a22

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Matrix-vector product; ``v`` has shape (..., 2)."""
        v1, v2 = v[..., 0], v[..., 1]
        return _side_by_side(self.a11 * v1 + self.a12 * v2, self.a21 * v1 + self.a22 * v2)


@dataclass(frozen=True)
class SymTensor2:
    """Symmetric 2x2 tensor stored as its three independent entries."""

    a11: Any
    a12: Any
    a22: Any

    def trace(self) -> Any:
        return self.a11 + self.a22

    def contract(self, other: "SymTensor2") -> Any:
        """Full double contraction A : B (off-diagonal counted twice)."""
        return self.a11 * other.a11 + 2.0 * self.a12 * other.a12 + self.a22 * other.a22

    def apply(self, v: np.ndarray) -> np.ndarray:
        v1, v2 = v[..., 0], v[..., 1]
        return _side_by_side(self.a11 * v1 + self.a12 * v2, self.a12 * v1 + self.a22 * v2)


@dataclass(frozen=True)
class DerivedConstants:
    """Material constants derived from the Lame pair.

    rho       dimensionless ratio lam / (2 (lam + mu))
    E         plane-strain Young-type modulus mu (3 lam + 2 mu) / (lam + mu)
    alpha1    Kelvin matrix log coefficient
    alpha2    Kelvin matrix rank-one coefficient
    prefactor (1 + rho)(1 - 2 rho)/(1 - rho); satisfies prefactor*(lam+2mu) = E
    """

    rho: float
    E: float
    alpha1: float
    alpha2: float
    prefactor: float


def stress_from_gradient(g: Matrix2, mat: LameMaterial) -> SymTensor2:
    """Stress of a displacement gradient under the isotropic stiffness.

    Only the symmetric part of ``g`` enters: sigma = lam tr(e) I + 2 mu e
    with e the symmetrized gradient.
    """
    lam, mu = mat.lam, mat.mu
    s11 = (lam + 2.0 * mu) * g.a11 + lam * g.a22
    s22 = lam * g.a11 + (lam + 2.0 * mu) * g.a22
    s12 = mu * (g.a12 + g.a21)
    return SymTensor2(s11, s12, s22)


def _compliance_constants(mat: LameMaterial) -> tuple[float, float]:
    """(2 mu, c) of the compliance form s : C^-1 t = s : t / (2 mu) - c tr(s) tr(t)."""
    lam, mu = mat.lam, mat.mu
    return 2.0 * mu, lam / (2.0 * mu * (2.0 * lam + 2.0 * mu))


def compliance_energy(s: Matrix2 | SymTensor2, mat: LameMaterial) -> Any:
    """Quadratic form s : C^{-1} s, extended verbatim to full matrices.

    For a symmetric argument this is the usual complementary energy density.
    A skew component only adds the nonnegative quadratic term
    sum(skew^2)/(2 mu).  That does not make a skew trial stress admissible:
    the complementary-energy principle needs a symmetric stress, and the sign
    says nothing about the cross and boundary terms of the dual functional.
    """
    two_mu, c = _compliance_constants(mat)
    if isinstance(s, SymTensor2):
        sq = s.a11 * s.a11 + 2.0 * s.a12 * s.a12 + s.a22 * s.a22
    else:
        sq = s.a11 * s.a11 + s.a12 * s.a12 + s.a21 * s.a21 + s.a22 * s.a22
    tr = s.trace()
    return sq / two_mu - c * tr * tr


def compliance_contract(s: Matrix2 | SymTensor2, t: Matrix2 | SymTensor2,
                        mat: LameMaterial) -> Any:
    """Bilinear form s : C^{-1} t; compliance_energy is its diagonal."""
    two_mu, c = _compliance_constants(mat)

    def comps(a):
        if isinstance(a, SymTensor2):
            return a.a11, a.a12, a.a12, a.a22
        return a.a11, a.a12, a.a21, a.a22

    s11, s12, s21, s22 = comps(s)
    t11, t12, t21, t22 = comps(t)
    dot = s11 * t11 + s12 * t12 + s21 * t21 + s22 * t22
    return dot / two_mu - c * s.trace() * t.trace()


def derived_constants(mat: LameMaterial) -> DerivedConstants:
    lam, mu = mat.lam, mat.mu
    rho = lam / (2.0 * (lam + mu))
    young = mu * (3.0 * lam + 2.0 * mu) / (lam + mu)
    alpha1 = (1.0 / mu + 1.0 / (2.0 * mu + lam)) / (4.0 * np.pi)
    alpha2 = (1.0 / mu - 1.0 / (2.0 * mu + lam)) / (4.0 * np.pi)
    prefactor = (1.0 + rho) * (1.0 - 2.0 * rho) / (1.0 - rho)
    return DerivedConstants(rho=rho, E=young, alpha1=alpha1, alpha2=alpha2, prefactor=prefactor)


def energy_density(g: Matrix2, mat: LameMaterial) -> Any:
    """Elastic energy density C e : e of the symmetrized gradient e."""
    e = g.sym()
    s = stress_from_gradient(g, mat)
    return s.contract(e)
