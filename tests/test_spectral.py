"""The second-chaos closed forms and their one refusal message."""

from __future__ import annotations

import numpy as np
import pytest

import chaosgamma
from chaosgamma import bounds, mc, spectral
from chaosgamma.spectral import negative_moment_exists, require_finite


def test_moved_names_are_one_object_under_every_kept_path():
    assert mc.SecondChaosSpec is spectral.SecondChaosSpec
    assert mc.density_cf_oracle is spectral.density_cf_oracle
    assert bounds.second_chaos_eigenvalues is spectral.second_chaos_eigenvalues
    assert chaosgamma.SecondChaosSpec is spectral.SecondChaosSpec
    assert chaosgamma.density_cf_oracle is spectral.density_cf_oracle
    assert chaosgamma.second_chaos_eigenvalues is spectral.second_chaos_eigenvalues


# (zeta, alpha, a, b, a regex the message must match): a negative
# eigenvalue, a negative shift gap, and too few eigenvalues at a positive
# gap (m > 2a) and at gap 0 (m > 2(a + b))
REFUSED = [
    ([0.6] * 10 + [-0.2], 5.0, 0.0, 2.0, "negative eigenvalues"),
    ([0.3] * 12, 2.16, 0.0, 2.0, "shift gap"),
    ([0.55] * 8, 4.84, 6.0, 0.0, "more than 12 nonzero eigenvalues; this spectrum has 8 positive"),
    ([0.5] * 8, 4.0, 2.0, 2.0, "at zero shift gap it takes more than 8 nonzero eigenvalues"),
]


@pytest.mark.parametrize("zeta, alpha, a, b, reason", REFUSED)
def test_require_finite_names_the_quantity_and_the_reason(zeta, alpha, a, b, reason):
    assert not negative_moment_exists(zeta, alpha, a, b)
    with pytest.raises(ValueError, match=f"^the moment under test is not finite: .*{reason}"):
        require_finite(np.array(zeta), alpha, a, b, "the moment under test")
    # five more eigenvalues at the same gap make the gradient moments finite
    if a > 0:
        require_finite(np.array(zeta + [0.5] * 5), alpha + 2.5, a, b, "the moment under test")
