"""Failure branches of the paper's corollaries and of the supremum and infimum
characterizations."""

import math

import pytest

from mulmetric import spaces
from mulmetric.errors import InvariantBreachError
from mulmetric.fixed_point import ContractionSpec, power_solve, uniqueness_probe
from mulmetric.sequence_analysis import check_infimum, check_supremum
from mulmetric.spaces import SelfMap

POS = spaces.positive_reals()
BANACH_HALF = ContractionSpec("banach", 0.5)


def test_power_solve_rejects_a_fixed_point_of_the_composition_only():
    # 1/x composed with itself is the identity, which fixes 2; 1/x moves 2 to 1/2
    inverse = SelfMap("inverse", lambda x: 1.0 / x, POS)
    with pytest.raises(InvariantBreachError, match="does not fix the map itself") as info:
        power_solve(inverse, 2, BANACH_HALF, 2.0)
    assert f"ln d(fz, z) = {math.log(4.0):.6e}" in str(info.value)


def test_uniqueness_probe_records_starts_that_do_not_converge():
    probe = uniqueness_probe(SelfMap("sqrt", math.sqrt, POS), BANACH_HALF, [16.0, 0.01],
                             max_iter=1)
    assert probe.failures == [(0, "no convergence in 1 iterations"),
                              (1, "no convergence in 1 iterations")]
    assert probe.fixed_points == [] and probe.max_pairwise_log == 0.0 and not probe.ok


@pytest.mark.parametrize("check, bound, index, element", [
    (check_supremum, 2.5, 2, 3),
    (check_infimum, 1.5, 0, 1),
], ids=["supremum", "infimum"])
def test_an_element_beyond_the_bound_is_the_witness(check, bound, index, element):
    diag = check([1, 2, 3], bound, [1.1])
    assert not diag.verdict and diag.witness_index == index
    assert diag.witness_value.log_value == abs(math.log(bound / element))
    assert f"element {element} violates" in diag.detail
