"""A NaN input fails every tolerance check instead of slipping through it.

A check written as ``if dev > tol: raise`` lets NaN pass, since every
comparison with NaN is False; each check below is written so that NaN fails.
"""

import numpy as np
import pytest

from spinstar import (
    KrausChannel,
    RandomUnitaryChannel,
    SpinStarParams,
    ZeroDiscordFamily,
    build_initial_state,
    concurrence_closed_form,
    discord_zero_check,
    inaccessible_concurrence,
)
from spinstar.linalg import check_orthonormal

NAN = float("nan")


def nan_flags():
    flags = np.eye(4)
    flags[0, 0] = NAN
    return list(flags)


CASES = {
    "kraus-channel": lambda: KrausChannel([np.full((4, 4), NAN)]),
    "random-unitary-channel": lambda: RandomUnitaryChannel([(1.0, np.full((2, 2), NAN))]),
    "check-orthonormal": lambda: check_orthonormal([np.array([NAN, 0.0]), np.eye(2)[1]], "vectors"),
    "zero-discord-family": lambda: ZeroDiscordFamily(
        [1.0], [np.array([NAN, 0.0, 0.0, 1.0])], [np.array([1.0, 0.0])]
    ),
    "discord-zero-check": lambda: discord_zero_check(
        build_initial_state(SpinStarParams()), nan_flags()
    ),
    "params-p": lambda: SpinStarParams(p=NAN),
    "params-alpha": lambda: SpinStarParams(alpha=NAN),
    "params-beta": lambda: SpinStarParams(beta=NAN),
    "params-coupling": lambda: SpinStarParams(coupling=NAN),
    "closed-form-time": lambda: concurrence_closed_form(SpinStarParams(), NAN),
    "inaccessible-whole-cut": lambda: inaccessible_concurrence(NAN, 0.5),
    "inaccessible-system": lambda: inaccessible_concurrence(1.0, NAN),
}


@pytest.mark.parametrize("build", CASES.values(), ids=CASES.keys())
def test_nan_is_refused(build):
    with pytest.raises(ValueError):
        build()
