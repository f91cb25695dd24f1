import itertools
import math

import numpy as np
from hypothesis import settings

from polyshap.coalitions import Coalition

# Derandomized: every run draws the same examples, so two checkouts can be
# compared test for test. Tests keep their own max_examples.
settings.register_profile("polyshap", derandomize=True, deadline=None)
settings.load_profile("polyshap")


def shapley_by_permutation_enum(game) -> np.ndarray:
    """Independent oracle: average marginal contributions over all d! permutations.

    Only for tiny d; deliberately avoids the library's own Shapley formulas.
    """
    d = game.d
    assert d <= 6, "permutation enumeration oracle is for d <= 6"
    phi = np.zeros(d)
    for perm in itertools.permutations(range(d)):
        mask = 0
        prev = game.evaluate(Coalition(0, d))
        for player in perm:
            mask |= 1 << player
            value = game.evaluate(Coalition(mask, d))
            phi[player] += value - prev
            prev = value
    return phi / math.factorial(d)
