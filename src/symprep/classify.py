"""Weight taxonomy: singular weights, terminal weights, terminal decompositions.

A dominant weight is singular when it is the defining fundamental weight of a
symplectic simple factor (type C_n for n >= 1, counting A1 as C1) and acts
trivially everywhere else.  A highest weight of a validated module is terminal
when it is singular with multiplicity one or restricts to a character of the
whole group.
"""

import enum
from dataclasses import dataclass
from functools import lru_cache

from .errors import InternalConsistencyError, SymprepError
from .linalg import cvec, span_solver, vdot


class WeightStatus(enum.Enum):
    CHARACTER = "character"
    SINGULAR = "singular"
    NON_TERMINAL = "non_terminal"


def _symplectic_node(letter, rank):
    """Bourbaki index of the node carrying the defining symplectic weight,
    or None when the factor has no such representation."""
    if letter == "A" and rank == 1:
        return 0
    if letter == "C":
        return 0
    if letter == "B" and rank == 2:
        return 1  # B2 = C2 with reversed numbering; the short node carries it
    return None


def is_singular_weight(datum, chi):
    """(flag, factor index): chi is the defining weight of a C-type factor and
    vanishes on every other factor and on the central torus."""
    return _is_singular_cached(datum, cvec(chi))[1:]


@lru_cache(maxsize=None)
def _is_singular_cached(datum, chi):
    """(character, singular, factor index) of a dominant chi: chi pairs to
    zero with every simple coroot, and `is_singular_weight`'s pair."""
    if not datum.is_dominant(chi):
        raise SymprepError(f"{chi} is not dominant")
    pairings = [vdot(chi, c) for c in datum.simple_coroots]
    if not any(pairings):
        return True, False, None
    for fi, (letter, rank) in enumerate(datum.factors):
        node = _symplectic_node(letter, rank)
        if node is None:
            continue
        target_index = datum.standard_order[fi][node]
        if all(
            p == (1 if i == target_index else 0) for i, p in enumerate(pairings)
        ):
            # trivial on the central torus <=> chi lies in the span of the roots
            if span_solver(datum.simple_roots)(chi) is None:
                return False, False, None
            return False, True, fi
    return False, False, None


def singular_sp_halfdim(datum, factor_index):
    """m with Sp_{2m} the image of the singular factor's action."""
    letter, rank = datum.factors[factor_index]
    if letter in ("C", "B"):
        return rank
    if letter == "A" and rank == 1:
        return 1
    raise InternalConsistencyError("factor carries no symplectic weight")


def weight_status(spec, chi):
    """Status of a highest weight inside a validated module."""
    chi = cvec(chi)
    mult = spec.multiplicity(chi)
    if mult == 0:
        raise SymprepError(f"{chi} is not a summand of the module")
    character, singular, _ = _is_singular_cached(spec.datum, chi)
    if character:
        return WeightStatus.CHARACTER
    if singular and mult == 1:
        return WeightStatus.SINGULAR
    return WeightStatus.NON_TERMINAL


@dataclass(frozen=True)
class TerminalVerdict:
    terminal: bool
    witness: tuple          # a non-terminal weight, or None
    character_pairs: tuple  # (representative of a (chi, -chi) pair, multiplicity)
    sp_factor_sizes: tuple  # m_i per symplectic factor


def terminal_decomposition(spec):
    """Decide terminality and extract the character pairs and Sp-block sizes."""
    datum = spec.datum
    statuses = {w: weight_status(spec, w) for w, _ in spec.summands}
    # the summands descend by weight_key, so the first non-terminal one is the max
    witness = next((w for w, s in statuses.items() if s is WeightStatus.NON_TERMINAL), None)
    if witness is not None:
        return TerminalVerdict(False, witness, (), ())
    # a character's dual is its negative, and the zero character is of
    # orthogonal type: the plan already holds each pair once, with its count
    pairs = [(item.weight, item.count) for item in spec.pairing_plan
             if statuses[item.weight] is WeightStatus.CHARACTER]
    sizes = []
    for w, m in spec.summands:
        if statuses[w] is WeightStatus.SINGULAR:
            _, fi = is_singular_weight(datum, w)
            sizes.append(singular_sp_halfdim(datum, fi))
    dim = spec.dim
    blocks = 2 * sum(sizes) + 2 * sum(m for _, m in pairs)
    if blocks != dim:
        raise InternalConsistencyError(
            f"terminal blocks account for {blocks} of {dim} dims"
        )
    return TerminalVerdict(True, None, tuple(pairs), tuple(sorted(sizes)))
