"""Chart-wise diagonalization of division-algebra spin Hamiltonians, the
Dirac strings obstructing the charts, and the operator-valued analogue of
the whole construction built on the detuned Jaynes-Cummings model."""

# fock loads with the package: no other module imports it, and
# perfbench/tracer.py expects every layer module to be loaded.
from . import fock  # noqa: F401

__version__ = "0.1.0"
