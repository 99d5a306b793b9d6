"""Shared numeric thresholds and tolerances.

The model thresholds are constants, read where they are used:
``STRING_THRESHOLD`` decides membership of the w = 0 axis (:mod:`hjc.berry`),
``SINGULAR_THRESHOLD`` decides when a sector denominator counts as
vanishing (:mod:`hjc.jc`, :mod:`hjc.fock`), and denominators below
``ILL_CONDITIONED`` are flagged in reports without being fatal.
"""

from __future__ import annotations

from dataclasses import dataclass

STRING_THRESHOLD = 1e-14
SINGULAR_THRESHOLD = 1e-14
ILL_CONDITIONED = 1e-6


@dataclass(frozen=True)
class Tolerances:
    """The tolerances a report's residuals are judged against.  A command
    takes the ``--tol-*`` option of each one that its record declaration
    names (:attr:`hjc.report.Record.tols`), and only those.

    ``algebraic`` covers unitarity/idempotency/cocycle style identities,
    ``reconstruction`` the chart reconstructions of a Hamiltonian (the
    judge of ``hjc jc`` multiplies it by max(1, ||H||)), and
    ``propagator`` the closed-form evolution against the eigendecomposition
    oracle.  Identities that the closed forms satisfy by construction (the
    ordering identity of the shifts, the Hermiticity of the projector) are
    not reported, so no tolerance judges them.
    """

    algebraic: float = 1e-12
    reconstruction: float = 1e-10
    propagator: float = 1e-8


DEFAULT = Tolerances()
