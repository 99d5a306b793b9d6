"""Shared numeric tolerances."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """One record holding every numeric threshold used across the package.

    ``algebraic`` covers unitarity/idempotency/cocycle style identities,
    ``strict`` the identities that hold up to a few ulps, ``reconstruction``
    the chart reconstructions of a Hamiltonian (``hjc jc`` multiplies it by
    max(1, max R(n)), the size of H), and ``propagator`` the
    closed-form evolution against the eigendecomposition oracle.
    ``string_threshold`` decides membership of the w = 0 axis,
    ``singular_threshold`` decides when a sector denominator counts as
    vanishing, and denominators below ``ill_conditioned`` are flagged in
    reports without being fatal.
    """

    algebraic: float = 1e-12
    strict: float = 1e-13
    reconstruction: float = 1e-10
    propagator: float = 1e-8
    string_threshold: float = 1e-14
    singular_threshold: float = 1e-14
    ill_conditioned: float = 1e-6


DEFAULT = Tolerances()
