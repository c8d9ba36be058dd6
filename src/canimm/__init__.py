"""Finite-horizon constructions and checkers for canonical immunity,
computable Mathias forcing, and a block-avoidance Schnorr test.

Importing the package loads no submodule: each name below is imported from
its module on first use (PEP 562), so `python -m canimm measure` compiles
only what it runs.
"""

# public name -> the submodule that defines it
_SOURCES = {
    "FiniteSet": "finitesets",
    "SetPrefix": "finitesets",
    "decode_finite_set": "finitesets",
    "encode_finite_set": "finitesets",
    "Outcome": "machine",
    "eval_bounded": "machine",
    "eval_oracle_bounded": "machine",
    "fixed_point": "machine",
    "pair": "machine",
    "smn": "machine",
    "unpair": "machine",
    "we_bounded": "machine",
    "Numbering": "numberings",
    "Registry": "numberings",
    "default_pool": "numberings",
    "stage_approx": "numberings",
    "standard_numbering": "numberings",
    "DyadicRational": "schnorr",
    "block": "schnorr",
    "check_schnorr_bound": "schnorr",
    "measure_U_trunc": "schnorr",
}

__all__ = list(_SOURCES)


def __getattr__(name):
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f"{__name__}.{_SOURCES[name]}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
