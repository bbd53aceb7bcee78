"""The membership-bitset algebra of spanshare.structures against the
older antichain, byte-table and pairwise algorithms kept in
tests/reference_structures.py."""

import random

from conftest import all_antichains
from reference_structures import (
    ref_antichain,
    ref_dual,
    ref_extend_selfdual,
    ref_is_q2,
    ref_is_q2star,
    ref_members,
    ref_restrict,
)
from spanshare.structures import AdversaryStructure, threshold_structure


def assert_matches_oracle(n, family):
    a = AdversaryStructure(n, tuple(family))
    maximal = ref_antichain(family)
    assert a.maximal == maximal
    assert list(a.members()) == ref_members(n, maximal)
    assert a.dual().maximal == ref_dual(n, maximal)
    q2, q2star = ref_is_q2(n, maximal), ref_is_q2star(n, maximal)
    assert (a.is_q2(), a.is_q2star(), a.is_selfdual()) == (q2, q2star, q2 and q2star)
    for k in range(1, n + 1):
        assert a.restrict(k).maximal == ref_restrict(n, maximal, k)
    if q2star and n < 16:
        assert a.extend_selfdual().maximal == ref_extend_selfdual(n, maximal)


def test_every_antichain_up_to_four_players():
    for n in range(1, 5):
        for chain in all_antichains(n):
            assert_matches_oracle(n, chain)


def test_random_families():
    rng = random.Random(2026)
    for _ in range(300):
        n = rng.randint(1, 10)
        full = (1 << n) - 1
        family = [rng.randrange(1 << n) for _ in range(rng.randint(0, 12))]
        if family and rng.random() < 0.3:
            family.append(rng.choice(family))  # a duplicate
        if family and rng.random() < 0.3:
            family.append(rng.choice(family) & rng.randrange(1 << n))  # a non-maximal set
        if rng.random() < 0.2:
            family.append(0)
        if rng.random() < 0.1:
            family.append(full)
        rng.shuffle(family)
        assert_matches_oracle(n, family)


def test_sixteen_player_threshold():
    # the pairwise Q2 oracle would take seconds on 11,440 maximal sets
    a = threshold_structure(16, 7)
    maximal = ref_antichain(b for b in range(1 << 16) if b.bit_count() == 7)
    assert len(maximal) == 11440
    assert a.maximal == maximal
    assert a.dual().maximal == ref_dual(16, maximal)
