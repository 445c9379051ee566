"""Constitutive maps and derived material constants."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapstress import (
    LameMaterial,
    Matrix2,
    SymTensor2,
    compliance_contract,
    compliance_energy,
    derived_constants,
    energy_density,
    stress_from_gradient,
)

from conftest import UNIT
from oracles import compliance_apply


@st.composite
def materials(draw) -> LameMaterial:
    mu = draw(st.floats(0.05, 40.0))
    lam = draw(st.floats(-0.5 * mu, 40.0))
    return LameMaterial(lam=lam, mu=mu)


components = st.floats(-10.0, 10.0)


def test_identity_gradient_unit_material():
    s = stress_from_gradient(Matrix2(1.0, 0.0, 0.0, 1.0), UNIT)
    assert s.a11 == pytest.approx(4.0, abs=1e-15)
    assert s.a22 == pytest.approx(4.0, abs=1e-15)
    assert s.a12 == 0.0


def test_single_shear_gradient_unit_material():
    s = stress_from_gradient(Matrix2(0.0, 1.0, 0.0, 0.0), UNIT)
    assert s.a11 == 0.0
    assert s.a22 == 0.0
    assert s.a12 == pytest.approx(1.0, abs=1e-15)


def test_compliance_inverts_isotropic_stress():
    e = compliance_apply(SymTensor2(4.0, 0.0, 4.0), UNIT)
    assert e.a11 == pytest.approx(1.0, rel=1e-14)
    assert e.a22 == pytest.approx(1.0, rel=1e-14)
    assert e.a12 == 0.0


def test_compliance_shear_halves():
    e = compliance_apply(SymTensor2(0.0, 1.0, 0.0), UNIT)
    assert e.a12 == pytest.approx(0.5, rel=1e-14)
    assert e.a11 == 0.0
    assert e.a22 == 0.0


def test_unit_material_constants():
    d = derived_constants(UNIT)
    assert d.rho == pytest.approx(0.25, rel=1e-15)
    assert d.E == pytest.approx(2.5, rel=1e-15)
    assert d.alpha1 == pytest.approx(1.0 / (3.0 * math.pi), rel=1e-14)
    assert d.alpha2 == pytest.approx(1.0 / (6.0 * math.pi), rel=1e-14)
    assert d.prefactor == pytest.approx(5.0 / 6.0, rel=1e-14)


def test_zero_lambda_gives_zero_transverse_ratio():
    d = derived_constants(LameMaterial(lam=0.0, mu=1.0))
    assert d.rho == 0.0


def test_energy_density_identity_gradient():
    assert energy_density(Matrix2(1.0, 0.0, 0.0, 1.0), UNIT) == pytest.approx(8.0, rel=1e-14)


def test_energy_density_antisymmetric_gradient_vanishes():
    assert energy_density(Matrix2(0.0, 1.0, -1.0, 0.0), UNIT) == pytest.approx(0.0, abs=1e-15)


def test_constitutive_maps_broadcast_over_arrays():
    n = 5
    g = Matrix2(np.ones(n), np.zeros(n), np.zeros(n), np.ones(n))
    s = stress_from_gradient(g, UNIT)
    assert np.allclose(s.a11, 4.0)
    e = compliance_apply(s, UNIT)
    assert np.allclose(e.a11, 1.0)
    assert np.allclose(e.a12, 0.0)


@given(materials())
@settings(max_examples=200, deadline=None)
def test_prefactor_links_p_wave_modulus_to_youngs(m):
    d = derived_constants(m)
    assert d.prefactor * (m.lam + 2.0 * m.mu) == pytest.approx(d.E, rel=1e-12)


@given(materials(), components, components, components)
@settings(max_examples=200, deadline=None)
def test_constitutive_round_trip(m, a11, a12, a22):
    s = stress_from_gradient(Matrix2(a11, a12, a12, a22), m)
    back = compliance_apply(s, m)
    scale = max(abs(a11), abs(a12), abs(a22), 1e-6)
    assert back.a11 == pytest.approx(a11, abs=1e-12 * scale)
    assert back.a12 == pytest.approx(a12, abs=1e-12 * scale)
    assert back.a22 == pytest.approx(a22, abs=1e-12 * scale)


@given(materials(), components, components, components, components)
@settings(max_examples=200, deadline=None)
def test_energy_density_nonnegative(m, a11, a12, a21, a22):
    g = Matrix2(a11, a12, a21, a22)
    val = energy_density(g, m)
    scale = max(a11 * a11, a12 * a12, a21 * a21, a22 * a22, 1.0)
    assert val >= -1e-12 * (m.lam + 2.0 * m.mu) * scale


@given(materials(), components, components, components)
@settings(max_examples=200, deadline=None)
def test_compliance_energy_matches_contraction(m, a11, a12, a22):
    s = SymTensor2(a11, a12, a22)
    direct = compliance_energy(s, m)
    via_strain = s.contract(compliance_apply(s, m))
    scale = max(abs(direct), abs(via_strain), 1e-12)
    assert direct == pytest.approx(via_strain, abs=1e-12 * scale)


@given(materials(), components, components, components, components, components, components)
@settings(max_examples=200, deadline=None)
def test_compliance_contract_bilinear_form(m, s11, s12, s22, t11, t12, t22):
    s = SymTensor2(s11, s12, s22)
    t = SymTensor2(t11, t12, t22)
    b_st = compliance_contract(s, t, m)
    b_ts = compliance_contract(t, s, m)
    scale = max(abs(b_st), 1e-12)
    assert b_st == pytest.approx(b_ts, abs=1e-12 * scale)
    diag = compliance_contract(s, s, m)
    assert diag == pytest.approx(compliance_energy(s, m), rel=1e-12, abs=1e-13)


@given(materials(), components, components, components, components)
@settings(max_examples=200, deadline=None)
def test_matrix_compliance_energy_dominates_symmetric_part(m, a11, a12, a21, a22):
    # the quadratic form applied to a non-symmetric matrix exceeds its value
    # on the symmetrized matrix by (a12 - a21)^2 / (4 mu), so using it on a
    # mildly asymmetric stress only weakens a lower bound, never breaks it
    full = Matrix2(a11, a12, a21, a22)
    skew_gap = compliance_energy(full, m) - compliance_energy(full.sym(), m)
    oracle = (a12 - a21) ** 2 / (4.0 * m.mu)
    assert skew_gap == pytest.approx(oracle, rel=1e-10, abs=1e-12)


def test_material_validation():
    with pytest.raises(ValueError):
        LameMaterial(lam=0.0, mu=0.0)
    with pytest.raises(ValueError):
        LameMaterial(lam=-2.0, mu=1.0)
    # infinite constants used to pass and reach the quadrature
    with pytest.raises(ValueError, match="finite"):
        LameMaterial(lam=math.inf, mu=1.0)
    with pytest.raises(ValueError, match="finite"):
        LameMaterial(lam=1.0, mu=math.inf)
