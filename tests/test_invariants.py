"""Each exact invariant of ``invariants.CHECKS``, at the inputs and bounds
``crossmodal-pde doctor`` runs it with."""

import pytest

from crossmodal_pde.invariants import CHECKS


@pytest.mark.parametrize("check", [check for _, check in CHECKS],
                         ids=[check.__name__ for _, check in CHECKS])
def test_invariant(check):
    check()
