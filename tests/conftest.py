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
def sym_power_pass(monkeypatch):
    """Empty the invariant-dims cache and return a dict that the next cold
    pass fills: `bound` and `depth` as the pass hands them to `_targets`,
    and `h`, the states of S^d V that `_sym_power_states` keeps, which the
    pass itself drops when it returns."""
    from symprep import reps

    seen = {}
    targets, states = reps._targets, reps._sym_power_states

    def spy_targets(datum, bound, depth):
        seen.update(bound=bound, depth=depth)
        return targets(datum, bound, depth)

    def spy_states(*args):
        h, dropped = states(*args)
        seen["h"] = h
        return h, dropped

    monkeypatch.setattr(reps, "_targets", spy_targets)
    monkeypatch.setattr(reps, "_sym_power_states", spy_states)
    reps._invariant_dims_cached.cache_clear()
    return seen


@pytest.fixture
def mutate_invariant_dims(monkeypatch):
    """Return a function that installs one mutation of the invariant-dims
    kernels, by name, in place of any installed before, with their caches
    emptied so the mutated path runs:
    - "lose_point": the rho walk drops its last point;
    - "flip_sign": the rho walk flips the sign of its last point;
    - "lose_state": the symmetric-power recursion loses one degree-1 state;
    - "lose_top_state": it loses one kept target key at the top degree D;
    - "overcut": it drops the first kept degree-(D - 1) state that is no
      target but reaches one, booking it as dropped;
    - "swapped": the signed target table reaches the alternation with
      every sign swapped;
    - "doubled": it counts the identity (key 0) twice.
    Each but "overcut" must trip its cross-check: the first two the Weyl
    denominator identity, the next two the mass of S^1 V and S^D V, the
    last two the negative-dimension and the degree-0 checks.  The mass
    cannot see "overcut"; only an oracle can."""
    from symprep import reps

    walk, states, targets = reps._rho_walk, reps._sym_power_states, reps._targets

    def lose_point(datum, depth):
        return walk(datum, depth)[:-1]

    def flip_sign(datum, depth):
        out = walk(datum, depth)
        t, dep, sign = out.pop()
        return out + [(t, dep, -sign)]

    def lose_state(steps, max_degree, half, reach):
        h, dropped = states(steps, max_degree, half, reach)
        del h[1][next(iter(h[1]))]
        return h, dropped

    def lose_top_state(steps, max_degree, half, reach):
        h, dropped = states(steps, max_degree, half, reach)
        del h[max_degree][next(iter(h[max_degree]))]
        return h, dropped

    def overcut(steps, max_degree, half, reach):
        h, _ = states(steps, max_degree, half, reach)
        key = next(k for k in h[max_degree - 1] if reach[k] < len(steps))
        return states(steps, max_degree, half,
                      {k: j for k, j in reach.items() if k != key})

    def swapped(datum, bound, depth):
        return {k: -sign for k, sign in targets(datum, bound, depth).items()}

    def doubled(datum, bound, depth):
        signs = targets(datum, bound, depth)
        return {**signs, 0: 2 * signs[0]}

    mutants = {"lose_point": ("_rho_walk", lose_point),
               "flip_sign": ("_rho_walk", flip_sign),
               "lose_state": ("_sym_power_states", lose_state),
               "lose_top_state": ("_sym_power_states", lose_top_state),
               "overcut": ("_sym_power_states", overcut),
               "swapped": ("_targets", swapped),
               "doubled": ("_targets", doubled)}

    def install(name):
        monkeypatch.setattr(reps, "_rho_walk", walk)
        monkeypatch.setattr(reps, "_sym_power_states", states)
        monkeypatch.setattr(reps, "_targets", targets)
        monkeypatch.setattr(reps, *mutants[name])
        reps._invariant_dims_cached.cache_clear()
        targets.cache_clear()

    return install
