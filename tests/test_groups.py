import random
from math import gcd

import pytest

from cupone.errors import DomainError
from cupone.groups import (
    TRIVIAL,
    Z,
    GroupHom,
    HypothesisInstance,
    check_hypotheses,
    cokernel,
    is_injective,
    tor,
    unitary_group_instance,
)
from cupone.linalg import FGAbelianGroup, IntMatrix


def cyclic(n):
    return FGAbelianGroup.from_divisors([n])


def kernel_order_oracle(m, n):
    """|ker(x m : Z/n -> Z/n)| by enumeration, and cyclicity of the kernel."""
    kernel = [x for x in range(n) if (m * x) % n == 0]
    # the kernel of multiplication on a cyclic group is cyclic
    return len(kernel)


def test_tor_free_argument_vanishes():
    assert tor(FGAbelianGroup(3), cyclic(12)).is_trivial
    assert tor(cyclic(12), FGAbelianGroup(2)).is_trivial


def test_tor_cyclic_pairs_match_kernel_oracle():
    for m in range(1, 25):
        for n in range(1, 25):
            t = tor(cyclic(m), cyclic(n))
            order = kernel_order_oracle(m, n)
            assert t.order() == order
            if order > 1:
                assert t.torsion == (gcd(m, n),)  # kernel is cyclic


def test_tor_reference_values():
    assert str(tor(cyclic(4), cyclic(6))) == "Z/2"
    assert str(tor(FGAbelianGroup.from_divisors([2, 0]), cyclic(2))) == "Z/2"


def direct_sum(a, b):
    return FGAbelianGroup(a.rank + b.rank, FGAbelianGroup.from_divisors([*a.torsion, *b.torsion]).torsion)


def test_tor_symmetric_and_additive():
    rng = random.Random(19)
    for _ in range(60):
        a = FGAbelianGroup.from_divisors([rng.randint(0, 9) for _ in range(rng.randint(0, 3))])
        b = FGAbelianGroup.from_divisors([rng.randint(0, 9) for _ in range(rng.randint(0, 3))])
        c = FGAbelianGroup.from_divisors([rng.randint(0, 9) for _ in range(rng.randint(0, 2))])
        assert tor(a, b) == tor(b, a)
        assert tor(direct_sum(a, b), c) == direct_sum(tor(a, c), tor(b, c))


def test_cokernel_examples():
    assert str(cokernel(GroupHom.times(2))) == "Z/2"  # (i-1)! = 2 at i = 3
    assert cokernel(GroupHom.times(1)).is_trivial
    assert str(cokernel(GroupHom.zero(Z, cyclic(6)))) == "Z/6"


def test_cokernel_of_free_groups_is_the_matrix_cokernel():
    z2 = FGAbelianGroup(2)
    assert cokernel(GroupHom(z2, z2, IntMatrix([[2, 0], [0, 3]]))) == FGAbelianGroup.from_divisors([6])
    assert cokernel(GroupHom(Z, z2, IntMatrix.zeros(2, 1))).rank == 2


def test_cokernel_invariant_under_source_isomorphism():
    # precomposing with an isomorphism does not change the cokernel
    h = GroupHom(FGAbelianGroup(2), Z, IntMatrix([[2, 4]]))
    iso = GroupHom(FGAbelianGroup(2), FGAbelianGroup(2), IntMatrix([[1, 1], [0, 1]]))
    assert cokernel(h.compose(iso)) == cokernel(h)


def test_is_injective_examples():
    assert is_injective(GroupHom.times(2))
    assert not is_injective(GroupHom.zero(cyclic(2), Z))
    assert not is_injective(GroupHom.times(2, cyclic(4)))
    assert is_injective(GroupHom.times(3, cyclic(4)))
    assert is_injective(GroupHom.zero(TRIVIAL, Z))


def test_hom_well_definedness_enforced():
    with pytest.raises(DomainError, match="torsion"):
        GroupHom(cyclic(2), Z, IntMatrix([[1]]))
    # Z/2 -> Z/4 by 1 is not well defined; by 2 it is
    with pytest.raises(DomainError):
        GroupHom(cyclic(2), cyclic(4), IntMatrix([[1]]))
    GroupHom(cyclic(2), cyclic(4), IntMatrix([[2]]))


def test_unitary_instance_passes():
    for n in range(1, 7):
        coh = {k: FGAbelianGroup.from_divisors([0, 7]) for k in range(2, 2 * n + 1)}
        inst = unitary_group_instance(n, coh)
        assert check_hypotheses(inst).ok


def test_planted_torsion_fails_with_named_degree():
    coh = {k: Z for k in range(2, 13)}
    coh[6] = FGAbelianGroup.from_divisors([0, 2])
    inst = unitary_group_instance(6, coh)
    rep = check_hypotheses(inst)
    assert not rep.ok
    failed = rep.first_failure()
    assert failed.degree == 5  # u_5 = x2!, Tor(Z/2, Z/2) != 0
    assert str(failed.tor_group) == "Z/2"


def test_vacuous_range():
    assert check_hypotheses(HypothesisInstance(1, {}, {})).ok


def test_degree_one_assumption_is_flagged():
    inst = HypothesisInstance(2, {2: Z}, {1: GroupHom.times(1)})
    rep = check_hypotheses(inst)
    assert rep.ok
    assert "assumption" in rep.verdicts[0].note
