"""Finite-horizon constructions and checkers for canonical immunity,
computable Mathias forcing, and a block-avoidance Schnorr test.

Importing the package loads no submodule: each verb imports the modules it
runs (`canimm.command`), so `python -m canimm measure` compiles only what
it runs.  Library code imports the submodules by name, as in
`from canimm.machine import eval_bounded`.
"""
