"""Chart-wise diagonalization of division-algebra spin Hamiltonians, the
Dirac strings obstructing the charts, and the operator-valued analogue of
the whole construction built on the detuned Jaynes-Cummings model."""

# fock loads with the package: no other module imports it, and
# perfbench/tracer.py expects every layer module to be loaded.
from . import fock  # noqa: F401
from .algebra import AlgebraElement, AlgebraTag
from .berry import ChartTag, Matrix2K, PointClass
from .config import DEFAULT, Tolerances
from .jc import BlockOperator, ChartDecomposition, JCParams, SectorReport, SingularSectorError

__version__ = "0.1.0"

__all__ = [
    "AlgebraElement",
    "AlgebraTag",
    "BlockOperator",
    "ChartDecomposition",
    "ChartTag",
    "DEFAULT",
    "JCParams",
    "Matrix2K",
    "PointClass",
    "SectorReport",
    "SingularSectorError",
    "Tolerances",
    "__version__",
]
