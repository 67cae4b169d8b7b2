"""Projective-plane construction tests (both Lee and GF routes)."""

import pytest

from repro.designs.bibd import pair_coverage, verify_design
from repro.designs.primes import plane_size
from repro.designs.projective import gf_plane, lee_plane, projective_plane

PRIME_ORDERS = [2, 3, 5, 7, 11, 13]
PRIME_POWER_ORDERS = [4, 8, 9]


class TestLeePlane:
    @pytest.mark.parametrize("q", PRIME_ORDERS)
    def test_is_valid_design(self, q):
        blocks = lee_plane(q)
        v = plane_size(q)
        assert len(blocks) == v
        check = verify_design(blocks, v, k=q + 1, lam=1)
        assert check.ok, check.violations

    def test_fano_plane_structure(self):
        """q=2 yields the Fano plane: 7 points, 7 lines of 3."""
        blocks = lee_plane(2)
        assert blocks[0] == [1, 2, 3]  # Rule 1 block
        assert blocks[1] == [1, 4, 5]  # first Rule 2 block
        assert all(len(b) == 3 for b in blocks)

    def test_rejects_non_prime(self):
        with pytest.raises(ValueError):
            lee_plane(4)  # prime power but not prime
        with pytest.raises(ValueError):
            lee_plane(6)

    def test_every_point_on_q_plus_1_lines(self):
        q = 5
        blocks = lee_plane(q)
        from collections import Counter

        incidence = Counter()
        for block in blocks:
            incidence.update(block)
        assert all(count == q + 1 for count in incidence.values())

    def test_two_lines_meet_in_one_point(self):
        """Dual property: any two distinct lines share exactly one point."""
        blocks = [set(b) for b in lee_plane(3)]
        for a in range(len(blocks)):
            for b in range(a):
                assert len(blocks[a] & blocks[b]) == 1


class TestGFPlane:
    @pytest.mark.parametrize("q", PRIME_ORDERS + PRIME_POWER_ORDERS)
    def test_is_valid_design(self, q):
        blocks = gf_plane(q)
        v = plane_size(q)
        assert len(blocks) == v
        check = verify_design(blocks, v, k=q + 1, lam=1)
        assert check.ok, check.violations

    def test_rejects_non_prime_power(self):
        with pytest.raises(ValueError):
            gf_plane(6)

    def test_point_ids_one_indexed(self):
        blocks = gf_plane(4)
        flat = {p for block in blocks for p in block}
        assert flat == set(range(1, 22))

    @pytest.mark.parametrize("q", [4, 9])
    def test_prime_power_two_lines_one_point(self, q):
        blocks = [set(b) for b in gf_plane(q)]
        for a in range(len(blocks)):
            for b in range(a):
                assert len(blocks[a] & blocks[b]) == 1


class TestCrossValidation:
    @pytest.mark.parametrize("q", [2, 3, 5, 7])
    def test_lee_and_gf_cover_identically(self, q):
        """Different constructions, identical pair-coverage profile."""
        lee_cover = pair_coverage(lee_plane(q))
        gf_cover = pair_coverage(gf_plane(q))
        assert set(lee_cover) == set(gf_cover)
        assert all(count == 1 for count in lee_cover.values())
        assert all(count == 1 for count in gf_cover.values())

    def test_dispatch_prefers_lee_for_primes(self):
        assert projective_plane(5) == lee_plane(5)
        assert projective_plane(4) == gf_plane(4)
