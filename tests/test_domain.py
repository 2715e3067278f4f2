"""Unit tests for the discrete domain mapping (repro.core.domain)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.domain import Domain, bit_length_for, partition_extent, prefix
from repro.core.errors import DomainError


class TestPrefixHelpers:
    def test_prefix_matches_paper_example(self):
        # the paper maps [21, 38] (6-bit) to [5, 9] (4-bit) by taking prefixes
        assert prefix(4, 21, 6) == 5
        assert prefix(4, 38, 6) == 9

    def test_prefix_full_length_is_identity(self):
        assert prefix(6, 38, 6) == 38

    def test_prefix_zero_is_root(self):
        assert prefix(0, 63, 6) == 0

    def test_bit_length_for(self):
        assert bit_length_for(1) == 1
        assert bit_length_for(2) == 1
        assert bit_length_for(3) == 2
        assert bit_length_for(16) == 4
        assert bit_length_for(17) == 5

    def test_bit_length_for_invalid(self):
        with pytest.raises(DomainError):
            bit_length_for(0)

    def test_partition_extent(self):
        assert partition_extent(4, 4) == 1
        assert partition_extent(4, 0) == 16
        with pytest.raises(DomainError):
            partition_extent(4, 5)


class TestDomain:
    def test_identity_domain(self):
        domain = Domain.identity(4)
        assert domain.size == 16
        assert domain.max_value == 15
        assert domain.is_identity
        assert domain.map_value(7) == 7

    def test_identity_clamps_out_of_range(self):
        domain = Domain.identity(4)
        assert domain.map_value(-3) == 0
        assert domain.map_value(99) == 15

    def test_rescaling_maps_endpoints_to_extremes(self):
        domain = Domain(num_bits=4, raw_min=100, raw_max=200)
        assert domain.map_value(100) == 0
        assert domain.map_value(200) == 15
        assert 0 <= domain.map_value(150) <= 15

    def test_rescaling_is_monotone(self):
        domain = Domain(num_bits=5, raw_min=0, raw_max=1_000_000)
        values = np.linspace(0, 1_000_000, 500).astype(np.int64)
        mapped = domain.map_values(values)
        assert np.all(np.diff(mapped) >= 0)

    def test_map_values_matches_map_value(self):
        domain = Domain(num_bits=6, raw_min=-50, raw_max=977)
        values = np.array([-50, -3, 0, 44, 977, 1000])
        vectorised = domain.map_values(values)
        scalar = [domain.map_value(int(v)) for v in values]
        assert vectorised.tolist() == scalar

    def test_degenerate_raw_domain(self):
        domain = Domain(num_bits=4, raw_min=5, raw_max=5)
        assert domain.map_value(5) == 0
        assert domain.map_values(np.array([5, 5])).tolist() == [0, 0]

    def test_for_collection(self):
        starts = np.array([10, 20, 30])
        ends = np.array([15, 25, 90])
        domain = Domain.for_collection(starts, ends, num_bits=8)
        assert domain.raw_min == 10
        assert domain.raw_max == 90

    def test_a_maximum_of_minus_one_is_kept(self):
        # -1 is a real largest end, not "no maximum given"
        for domain in (
            Domain(num_bits=1, raw_min=-2, raw_max=-1),
            Domain.for_collection(np.array([-2, -5]), np.array([-1, -3]), num_bits=1),
        ):
            assert domain.raw_max == -1
            assert not domain.is_identity
            assert domain.map_value(-1) == domain.max_value == 1
            assert domain.map_values(np.array([-1])).tolist() == [1]
        assert Domain(num_bits=3).raw_max == 7  # no maximum given: 2^m - 1

    def test_for_empty_collection(self):
        domain = Domain.for_collection(np.array([]), np.array([]), num_bits=4)
        assert domain.is_identity

    def test_invalid_bits(self):
        with pytest.raises(DomainError):
            Domain(num_bits=0)

    def test_invalid_bounds(self):
        with pytest.raises(DomainError):
            Domain(num_bits=4, raw_min=10, raw_max=5)

    def test_prefix_and_partitions(self):
        domain = Domain.identity(4)
        assert domain.prefix(4, 9) == 9
        assert domain.prefix(3, 9) == 4
        assert domain.prefix(0, 9) == 0
        assert domain.partitions_at(3) == 8
        with pytest.raises(DomainError):
            domain.partitions_at(5)

    def test_partition_bounds(self):
        domain = Domain.identity(4)
        assert domain.partition_bounds(4, 5) == (5, 5)
        assert domain.partition_bounds(3, 4) == (8, 9)
        assert domain.partition_bounds(0, 0) == (0, 15)

    def test_relevant_range_matches_paper_example(self):
        # query [5, 9] in the 4-bit domain: figure 6 of the paper
        domain = Domain.identity(4)
        assert domain.relevant_range(4, 5, 9) == (5, 9)
        assert domain.relevant_range(3, 5, 9) == (2, 4)
        assert domain.relevant_range(2, 5, 9) == (1, 2)
        assert domain.relevant_range(1, 5, 9) == (0, 1)
        assert domain.relevant_range(0, 5, 9) == (0, 0)


class TestWideDomains:
    """One rescaling formula for Python ints and int64 arrays, whatever the
    raw extent: ``extent * (2^m - 1)`` may be far past 2^63."""

    @settings(max_examples=300, deadline=None)
    @given(
        num_bits=st.integers(1, 30),
        raw_min=st.integers(-(2**61), 2**61),
        extent=st.integers(1, 2**62),
        data=st.data(),
    )
    def test_scalar_equals_vectorised_and_is_monotone(self, num_bits, raw_min, extent, data):
        raw_max = raw_min + extent
        domain = Domain(num_bits=num_bits, raw_min=raw_min, raw_max=raw_max)
        inside = st.integers(raw_min, raw_max)
        anywhere = st.integers(-(2**63), 2**63 - 1)
        values = sorted(
            data.draw(st.lists(st.one_of(inside, anywhere), max_size=30))
            + [raw_min, raw_max, raw_min + extent // 2]
        )
        mapped = domain.map_values(np.array(values, dtype=np.int64)).tolist()
        assert mapped == [domain.map_value(v) for v in values]
        assert mapped == sorted(mapped)
        assert all(0 <= v <= domain.max_value for v in mapped)
        assert domain.map_value(raw_min) == 0
        assert domain.map_value(raw_max) == domain.max_value
        if extent * domain.max_value < 2**63:
            # room for the product: the paper's f, exactly
            assert mapped == [
                (min(max(v, raw_min), raw_max) - raw_min) * domain.max_value // extent
                for v in values
            ]

    def test_nanosecond_epoch_endpoints(self):
        raw_min = 1_700_000_000_000_000_000
        domain = Domain(num_bits=16, raw_min=raw_min, raw_max=raw_min + 30_000_000_000_000_000)
        values = raw_min + np.arange(3_001, dtype=np.int64) * 10**13
        mapped = domain.map_values(values)
        assert mapped[0] == 0 and mapped[-1] == domain.max_value
        assert np.all(np.diff(mapped) >= 0)
        assert mapped.tolist() == [domain.map_value(int(v)) for v in values]

    def test_unscalable_domains_are_refused(self):
        with pytest.raises(DomainError):
            Domain(num_bits=16, raw_min=-(2**62), raw_max=2**62)
        with pytest.raises(DomainError):
            Domain(num_bits=63, raw_min=0, raw_max=10)
