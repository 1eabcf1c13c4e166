"""Tests for the high-level experiment harness."""

import pytest

from repro.campaign.tasks import SCHEME_NAMES, build_scheme
from repro.experiments import (
    GENERIC_ATTACKS,
    attack_matrix,
    summarize_matrix,
)


class TestAttackMatrix:
    def test_full_generic_row(self):
        cells = attack_matrix(
            n_lines=2**7, endurance=3e3,
            schemes=["none"], attacks=["raa", "bpa", "aia"],
            budget=5_000_000, seed=1,
        )
        assert len(cells) == 3
        assert all(cell.result.failed for cell in cells)
        raa = next(c for c in cells if c.attack == "raa")
        assert raa.result.user_writes == 3000  # exactly E on no-WL

    def test_rta_only_where_defined(self):
        cells = attack_matrix(
            n_lines=2**8, endurance=5e3,
            schemes=["rbsg", "security-rbsg"], attacks=["rta"],
            budget=20_000_000, seed=7,
        )
        # RTA has a procedure for RBSG but not for Security RBSG.
        assert [c.scheme for c in cells] == ["rbsg"]
        assert cells[0].result.failed

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            attack_matrix(schemes=["quantum-wl"])

    def test_all_factories_construct(self):
        for name in SCHEME_NAMES:
            scheme = build_scheme(name, 2**7, 0, {})
            assert scheme.n_lines == 2**7, name

    def test_matrix_ordering_ranks_defenses(self):
        cells = attack_matrix(
            n_lines=2**8, endurance=4e3,
            schemes=["none", "security-rbsg"], attacks=["raa"],
            budget=30_000_000, seed=3,
        )
        by_scheme = {c.scheme: c for c in cells}
        assert (
            by_scheme["security-rbsg"].lifetime_seconds
            > 10 * by_scheme["none"].lifetime_seconds
        )


class TestSummarize:
    def test_renders_table(self):
        cells = attack_matrix(
            n_lines=2**7, endurance=2e3,
            schemes=["none"], attacks=["raa"],
            budget=1_000_000,
        )
        text = summarize_matrix(cells)
        assert "none" in text and "raa" in text
        assert "True" in text

    def test_empty(self):
        assert summarize_matrix([]) == "(empty matrix)"


class TestTimingAttackPaths:
    def test_rta_against_sr_via_matrix(self):
        cells = attack_matrix(
            n_lines=2**8, endurance=2e4,
            schemes=["sr"], attacks=["rta"],
            budget=30_000_000, seed=11,
        )
        assert len(cells) == 1
        assert cells[0].result.failed
        assert cells[0].result.detection_writes > 0

    def test_random_swap_registered(self):
        cells = attack_matrix(
            n_lines=2**7, endurance=3e3,
            schemes=["random-swap"], attacks=["raa"],
            budget=10_000_000, seed=2,
        )
        assert cells[0].result.failed
        # Randomized placement spreads a hammered line's wear.
        assert cells[0].wear_gini < 0.95
