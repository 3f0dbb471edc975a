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
