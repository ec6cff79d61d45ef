"""Exact-arithmetic toolkit for the tubular algebra C(4,lambda).

Subpackages cover: the algebra as data with its derived Euler form
(``algebra``), lattice arithmetic on K0 (``lattice``), the exceptional set
and unit-vector decomposition (``exceptional``), certified slope searches
(``search`` with ``quadirr``), explicit matrix representations (``reps``),
and a pp-formula calculus (``pp``).  All arithmetic is exact; there is no
floating point anywhere in the package.

``import tubelat`` loads no submodule: each name of ``__all__`` is read from
its home module, which the first access imports (PEP 562), so a CLI start
pays only for the modules its subcommand runs.
"""

_HOMES = {
    "algebra": (
        "AlgebraSpec", "EulerData", "PathBasis", "build_c4", "derive_path_basis",
        "euler_data", "validate_spec",
    ),
    "exceptional": ("ExceptionalSet", "coordinate_bound", "enumerate_exceptional", "unit_decompose"),
    "lattice": ("DimVector", "K0Lattice", "RadicalBasis", "Slope", "mu", "radical_basis"),
    "quadirr": ("QuadIrrational", "parse_quad_irrational"),
    "search": (
        "GapCertificate", "TubeParams", "delta_for", "gap_vector", "p_bound",
        "quasisimple_bounds", "strip_pairs_above", "strip_pairs_below", "tube_parameters",
    ),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
