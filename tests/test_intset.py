import pytest
from hypothesis import given
from hypothesis import strategies as st

from sumrep.errors import NegativeElementError, ParameterError, SetFileError
from sumrep.intset import (
    IntegerSet,
    block_of,
    blocks,
    counting,
    from_values,
    load_set,
    parse_set_text,
    save_set,
)

small_sets = st.frozensets(st.integers(0, 200), max_size=12)


class TestFromValues:
    def test_canonicalizes(self):
        assert from_values([3, 1, 2, 2]).elements == (1, 2, 3)

    def test_empty(self):
        assert from_values([]).elements == ()

    def test_negative_rejected_by_value(self):
        with pytest.raises(NegativeElementError, match="negative element -1"):
            from_values([0, -1])

    def test_order_irrelevant(self):
        assert from_values([5, 0, 9]) == from_values([9, 5, 0])

    @given(small_sets)
    def test_round_trip(self, values):
        A = from_values(values)
        assert from_values(A.elements) == A

    def test_direct_construction_requires_sorted(self):
        with pytest.raises(ParameterError):
            IntegerSet((2, 1))
        with pytest.raises(ParameterError):
            IntegerSet((1, 1))


class TestCounting:
    def test_examples(self):
        A = from_values([0, 1, 5])
        assert counting(A, 4) == 1
        assert counting(A, 5) == 2
        assert counting(from_values([0]), 100) == 0

    def test_negative_x(self):
        assert counting(from_values([1, 2]), -3) == 0

    @given(small_sets, st.integers(0, 220))
    def test_difference_is_membership(self, values, x):
        A = from_values(values)
        diff = counting(A, x) - counting(A, x - 1)
        assert diff in (0, 1)
        assert (diff == 1) == (x in A and x >= 1)


class TestBlockOf:
    def test_examples(self):
        assert block_of(7, 2) == 3
        assert block_of(1, 10) == 1
        assert block_of(8, 2) == 4  # boundary lands in the upper block

    def test_zero_has_no_block(self):
        with pytest.raises(ParameterError, match="no block"):
            block_of(0, 2)

    def test_h_below_two(self):
        with pytest.raises(ParameterError):
            block_of(5, 1)

    @given(st.integers(1, 10**12), st.integers(2, 10))
    def test_interval_membership(self, a, h):
        k = block_of(a, h)
        assert h ** (k - 1) <= a < h**k

    @given(st.integers(1, 10**12), st.integers(2, 10))
    def test_multiply_shifts_block(self, a, h):
        assert block_of(a * h, h) == block_of(a, h) + 1


class TestBlocks:
    def test_example_h2(self):
        d = blocks(from_values([1, 2, 3, 4, 5, 8]), 2)
        assert [(k, m.elements) for k, m in d] == [
            (1, (1,)),
            (2, (2, 3)),
            (3, (4, 5)),
            (4, (8,)),
        ]

    def test_zero_excluded(self):
        d = blocks(from_values([0, 9]), 3)
        assert [(k, m.elements) for k, m in d] == [(3, (9,))]
        assert d.zero_excluded

    def test_empty(self):
        assert len(blocks(from_values([]), 2)) == 0

    def test_h_below_two(self):
        with pytest.raises(ParameterError):
            blocks(from_values([1]), 1)

    def test_block_lookup(self):
        members = dict(blocks(from_values([1, 2, 3]), 2).entries)
        assert members[2].elements == (2, 3)
        assert 7 not in members

    @given(small_sets, st.integers(2, 7))
    def test_partition(self, values, h):
        A = from_values(values)
        d = blocks(A, h)
        total = sum(len(m) for _, m in d)
        assert total == len(A) - (1 if A.contains_zero else 0)
        rebuilt = sorted(a for _, m in d for a in m)
        assert rebuilt == [a for a in A if a != 0]
        for k, members in d:
            assert members  # nonempty blocks only
            for a in members:
                assert h ** (k - 1) <= a < h**k
        ks = [k for k, _ in d]
        assert ks == sorted(ks)


class TestSetFiles:
    def test_round_trip(self, tmp_path):
        A = from_values([0, 3, 17, 900])
        path = tmp_path / "a.txt"
        save_set(A, path)
        assert load_set(path) == A

    def test_comments_blanks_duplicates(self):
        A = parse_set_text("# header\n\n5\n3\n5\n  # note\n0\n")
        assert A.elements == (0, 3, 5)

    def test_malformed_line_number(self):
        with pytest.raises(SetFileError, match="line 3") as err:
            parse_set_text("1\n2\nfoo\n")
        assert err.value.line_number == 3

    def test_negative_line_number(self):
        with pytest.raises(SetFileError, match="line 2: negative element -4"):
            parse_set_text("1\n-4\n")


class TestIntegerSet:
    def test_membership_and_iteration(self):
        A = from_values([4, 0, 2])
        assert 2 in A and 3 not in A
        assert list(A) == [0, 2, 4]
        assert len(A) == 3
        assert A.max_element == 4
        assert A.contains_zero

    def test_empty_properties(self):
        A = from_values([])
        assert not A
        assert A.max_element is None
        assert not A.contains_zero

    def test_restrict(self):
        A = from_values(range(10))
        assert A.restrict(3, 6).elements == (3, 4, 5, 6)
        assert A.restrict(11, 20).elements == ()
