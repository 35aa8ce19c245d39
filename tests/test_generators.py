"""Generator families, feasibility guards, predictors, and the tally oracle."""

from __future__ import annotations

import pytest

from assocsort import (
    FAMILIES,
    DatasetSpec,
    InfeasibleRange,
    PassTally,
    WordSpec,
    gen_adversarial,
    gen_best_case,
    gen_full_universe,
    gen_uniform,
    generate,
    generators,
    predict_worst_pass_bound,
    sort,
    sort_region,
    verify_pass_tally,
)
from assocsort.verification import VERIFY_WIDTHS

W16 = WordSpec(16)


class TestUniform:
    def test_range_membership_and_distinctness(self):
        ds = DatasetSpec("uniform", 4, 8, beta=1, seed=9)
        values = gen_uniform(ds)
        assert len(values) == 4 == len(set(values))
        assert all(0 <= v < 28 for v in values)

    def test_larger_case(self):
        ds = DatasetSpec("uniform", 1 << 10, 32, beta=8, seed=1)
        values = gen_uniform(ds)
        assert len(set(values)) == 1 << 10
        assert all(0 <= v < 8 * (1 << 10) * 31 for v in values)

    def test_boundary_range_accepted(self):
        # largest feasible range at w=4: beta*n*(w-1) = 2*1*3 hits nothing,
        # but 2 values over [0, 6) is fine
        ds = DatasetSpec("uniform", 2, 4, beta=1, seed=0)
        values = gen_uniform(ds)
        assert len(set(values)) == 2 and all(v < 6 for v in values)

    def test_determinism(self):
        ds = DatasetSpec("uniform", 100, 16, beta=2, seed=77)
        assert gen_uniform(ds) == gen_uniform(ds)

    def test_different_seeds_differ(self):
        a = gen_uniform(DatasetSpec("uniform", 100, 16, beta=2, seed=1))
        b = gen_uniform(DatasetSpec("uniform", 100, 16, beta=2, seed=2))
        assert a != b

    def test_infeasible_range(self):
        with pytest.raises(InfeasibleRange):
            gen_uniform(DatasetSpec("uniform", 4096, 16, beta=2, seed=0))


class TestAdversarial:
    def test_spacing_formula(self):
        assert gen_adversarial(4, W16) == [0, 60, 120, 180]

    def test_single_value(self):
        assert gen_adversarial(1, W16) == [0]

    def test_one_pass_per_value(self):
        # The paper's loop, sort_region, sorts one value per pass.  sort()
        # finishes these four words with sorted(), for one pass cannot hold
        # them.
        data = gen_adversarial(4, W16)
        sorted_counts = []

        def hook(event):
            if event.phase == "retrieve":
                sorted_counts.append(event.tally.sorted_count)

        report = sort_region(data, W16, hook=hook)
        assert report.pass_count == 4
        assert sorted_counts == [1, 1, 1, 1]
        data = gen_adversarial(4, W16)[::-1]
        assert sort(data, W16, hook=hook).pass_count == 0
        assert data == [0, 60, 120, 180] and len(sorted_counts) == 4

    def test_infeasible_at_small_width(self):
        # 3*3*4 = 36 does not fit below 2^3
        with pytest.raises(InfeasibleRange):
            gen_adversarial(4, WordSpec(4))

    @pytest.mark.parametrize("w", VERIFY_WIDTHS)
    def test_max_n_is_the_largest_feasible(self, w):
        # sample_case draws adversarial sizes up to this cap; at w=16 the
        # largest n that gen_adversarial accepts is 47.
        word = WordSpec(w)
        cap = 256
        n = generators.max_adversarial_n(word, cap)
        assert len(gen_adversarial(n, word)) == n
        if n < cap:
            with pytest.raises(InfeasibleRange):
                gen_adversarial(n + 1, word)
        assert generators.max_adversarial_n(word, n) == n


class TestBestCase:
    def test_range_membership(self):
        values = gen_best_case(4, WordSpec(4))
        assert len(set(values)) == 4
        assert all(v < 8 for v in values)

    def test_single_pass(self):
        for w in (4, 8, 16, 64):
            word = WordSpec(w)
            for n in (1, 2, 7):
                data = gen_best_case(n, word, seed=w * 31 + n)
                report = sort(data, word)
                assert report.pass_count == 1

    def test_singleton_is_delta(self):
        assert gen_best_case(1, W16, delta=13) == [13]

    def test_delta_offsets_interval(self):
        values = gen_best_case(20, W16, delta=1000, seed=3)
        assert all(1000 <= v < 1000 + 15 * 20 for v in values)

    def test_clamped_interval_still_works(self):
        # w=4 leaves only 8 distinct values; the interval clamps to them
        values = gen_best_case(8, WordSpec(4))
        assert sorted(values) == list(range(8))

    def test_infeasible(self):
        with pytest.raises(InfeasibleRange):
            gen_best_case(9, WordSpec(4))


class TestFullUniverse:
    def test_infeasible_beyond_the_universe(self):
        with pytest.raises(InfeasibleRange, match=r"cannot draw 17 distinct values from \[0, 16\)"):
            gen_full_universe(DatasetSpec("full_universe", 17, 4))

    def test_membership_and_boundary_crossing(self):
        ds = DatasetSpec("full_universe", 16, 4, seed=0)
        values = gen_full_universe(ds)
        assert sorted(values) == list(range(16))  # the whole 4-bit universe

    def test_host_width(self):
        ds = DatasetSpec("full_universe", 64, 64, seed=5)
        values = gen_full_universe(ds)
        assert len(set(values)) == 64
        assert all(0 <= v < 1 << 64 for v in values)
        assert gen_full_universe(ds) == values


class TestGenerateDispatch:
    @pytest.mark.parametrize("family", ["uniform", "adversarial", "best_case", "full_universe"])
    def test_sorts_to_oracle(self, family):
        ds = DatasetSpec(family, 32, 16, beta=2, seed=4)
        values = generate(ds)
        data = list(values)
        sort(data, W16)
        assert data == sorted(values)

    # full_universe samples a materialized range up to w=22, by rejection above.
    @pytest.mark.parametrize("beta", [1, 8], ids=lambda b: f"beta{b}")
    @pytest.mark.parametrize("w", [2, 3, 8, 16, 22, 23, 24, 64], ids=lambda w: f"w{w}")
    def test_empty(self, w, beta):
        for family in FAMILIES:
            assert generate(DatasetSpec(family, 0, w, beta=beta)) == [], family
        word = WordSpec(w)
        assert gen_adversarial(0, word) == []
        assert gen_best_case(0, word, delta=word.tag_mask) == []

    def test_bad_family_rejected(self):
        with pytest.raises(ValueError):
            DatasetSpec("bogus", 4, 16)

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            DatasetSpec("uniform", -1, 16)


class TestPredictors:
    def test_worst_case_bound_examples(self):
        # adversarial spread for n=4, w=4 gives m=37: ceil(36/11) = 4
        assert predict_worst_pass_bound(4, 37, WordSpec(4)) == 4
        assert predict_worst_pass_bound(4, 3 * 4, WordSpec(4)) == 1
        assert predict_worst_pass_bound(1, 1000, WordSpec(4)) == 1
        assert predict_worst_pass_bound(1, 5, WordSpec(2)) == 1

    def test_bound_dominates_measured_passes(self):
        for n, w in [(8, 16), (16, 16), (64, 32)]:
            word = WordSpec(w)
            data = gen_adversarial(n, word)
            m = max(data) + 1
            report = sort(data, word)
            assert report.pass_count <= predict_worst_pass_bound(n, m, word)


class TestTallyOracle:
    def test_core_example(self):
        assert verify_pass_tally([9, 2, 0, 11], 0, 4, WordSpec(4)) == PassTally(2, 2, 0, None)

    def test_deferred_example(self):
        assert verify_pass_tally([0, 100], 0, 2, WordSpec(4)) == PassTally(1, 0, 1, 100)

    def test_single_interval(self):
        got = verify_pass_tally([7, 8, 9], 7, 3, WordSpec(8))
        assert got == PassTally(1, 2, 0, None)
