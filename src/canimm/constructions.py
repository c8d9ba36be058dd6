"""Finite-horizon runs of the stage constructions, with replayable traces:
an index of the four construction families.

Each run is a pure function of its inputs and horizons, emits a set prefix
together with a trace, and ties are always broken toward the least
admissible value so that traces replay bit-for-bit.  A run's prefix is
the replay of its own trace.  None of the emitted prefixes is claimed to
have any infinite-horizon property; the runs guarantee exactly the
per-stage invariants the checkers re-verify.

Index conventions: pools are ordered, and the pool position e plays the
role of the index of the e-th numbering, with claims starting "from e" in
the checkers.  Stage pairing is the machine's Cantor pairing throughout,
and the threshold function f(i) = max over e <= i of pair(e, i) is
pair(i, i).

Each family is its own module, and a build imports only its own
(`builds.BUILDS`): `markers` (delta2, effectivize), `avoiding` (bci,
cofinal, ci-hi, ci-not-hi), `blocks` (hi-not-ci) and `pumping`
(2generic-witness).  This module imports all four and re-exports their
public names as the same objects, so a wrapper that replaces a name here
by identity finds it in the family module too.  No name here is one that
only the tests call.
"""

from .avoiding import MAX_FILL_PAIRS, bci_run, ci_hi_run, ci_not_hi_run, cofinal_encode  # noqa: F401
from .avoiding import choose_cofinal_positions, cofinal_decode  # noqa: F401
from .avoiding import replay_bci, replay_ci_hi, replay_ci_not_hi, replay_cofinal  # noqa: F401
from .blocks import MAX_BLOCK_END, MAX_SELECTION_BLOCKS, hi_not_ci_run, replay_hi_not_ci  # noqa: F401
from .blocks import h_block_at, h_blocks, h_even_rule_tree  # noqa: F401
from .markers import delta2_prefix, effectivize_inside, replay_delta2, replay_effectivize  # noqa: F401
from .pumping import PUMP_FUEL_PER_BIT, PumpResult, WitnessEntry, alpha_string  # noqa: F401
from .pumping import build_2generic_witness, pump_enumeration, replay_2generic  # noqa: F401
