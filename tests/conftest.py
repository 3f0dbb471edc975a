import os
import sys

import pytest

_HERE = os.path.dirname(__file__)
sys.path.insert(0, _HERE)
sys.path.insert(0, os.path.join(_HERE, os.pardir, "src"))


@pytest.fixture
def empty_gamma_caches():
    """Empty the caches holding Gamma, the centralizer Levi and its
    conjugacy verdict per (datum, a*), and return the function doing so: a
    test that patches what they compute calls it again after patching, so
    the patched path runs rather than a lookup."""
    from symprep import reduction, rootdata

    def empty():
        for cache in (rootdata._centralizer, rootdata._subspace_normalizer,
                      reduction._conjugate_levi):
            cache.cache_clear()

    empty()
    return empty


@pytest.fixture
def mutate_invariant_dims(monkeypatch):
    """Return a function that installs one mutation of the invariant-dims
    kernels, by name, in place of any installed before, with their caches
    emptied so the mutated path runs:
    - "lose_point": the rho walk drops its last point;
    - "flip_sign": the rho walk flips the sign of its last point;
    - "lose_state": the symmetric-power recursion loses one degree-1 state.
    Each must trip its cross-check: the first two the Weyl denominator
    identity, the third the mass of S^1 V."""
    from symprep import reps

    walk, states = reps._rho_walk, reps._sym_power_states

    def lose_point(datum, depth):
        return walk(datum, depth)[:-1]

    def flip_sign(datum, depth):
        out = walk(datum, depth)
        t, dep, sign = out.pop()
        return out + [(t, dep, -sign)]

    def lose_state(steps, max_degree, half):
        h, dropped = states(steps, max_degree, half)
        del h[1][next(iter(h[1]))]
        return h, dropped

    def install(name):
        monkeypatch.setattr(reps, "_rho_walk", walk)
        monkeypatch.setattr(reps, "_sym_power_states", states)
        target = "_sym_power_states" if name == "lose_state" else "_rho_walk"
        mutant = {"lose_point": lose_point, "flip_sign": flip_sign,
                  "lose_state": lose_state}[name]
        monkeypatch.setattr(reps, target, mutant)
        reps._sym_powers_cached.cache_clear()
        reps._targets.cache_clear()

    return install
