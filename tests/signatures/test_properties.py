"""Property-based tests for bloom signatures (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.signatures import BloomSignature, SignatureConfig

CONFIG = SignatureConfig(bits=256, partitions=4, seed=11)

element = st.integers(min_value=0, max_value=2**48)
element_sets = st.sets(element, max_size=24)


class TestSignatureLaws:
    @given(element_sets)
    def test_no_false_negatives(self, elements):
        sig = CONFIG.of(elements)
        assert all(sig.query(e) for e in elements)

    @given(element_sets, element_sets)
    def test_union_superset_queries(self, a, b):
        union = CONFIG.of(a).union(CONFIG.of(b))
        assert all(union.query(e) for e in a | b)

    @given(element_sets, element_sets)
    def test_union_commutative_and_raw_or(self, a, b):
        sa, sb = CONFIG.of(a), CONFIG.of(b)
        assert sa.union(sb) == sb.union(sa)
        assert sa.union(sb).raw == sa.raw | sb.raw

    @given(element_sets, element_sets)
    def test_intersection_sound(self, a, b):
        """A real overlap is always detected (no false negatives on
        the intersection test)."""
        sa, sb = CONFIG.of(a), CONFIG.of(b)
        if a & b:
            assert sa.intersects(sb)

    @given(element_sets, element_sets)
    def test_intersect_symmetric(self, a, b):
        sa, sb = CONFIG.of(a), CONFIG.of(b)
        assert sa.intersects(sb) == sb.intersects(sa)
        assert sa.intersect(sb) == sb.intersect(sa)

    @given(element_sets)
    def test_incremental_equals_bulk(self, elements):
        incremental = CONFIG.new()
        for e in elements:
            incremental.insert(e)
        assert incremental == CONFIG.of(elements)

    @given(element_sets)
    def test_empty_only_when_no_elements(self, elements):
        sig = CONFIG.of(elements)
        assert sig.is_empty() == (len(elements) == 0)

    @given(element_sets, element_sets)
    def test_unite_matches_union(self, a, b):
        sig = CONFIG.of(a)
        sig.unite(CONFIG.of(b))
        assert sig == CONFIG.of(a).union(CONFIG.of(b))

    @given(element_sets)
    def test_popcount_bounds(self, elements):
        sig = CONFIG.of(elements)
        n = len(elements)
        assert sig.popcount() <= CONFIG.partitions * n
        if n:
            # Every non-empty signature sets at least one bit in each
            # of the k partitions (one per element, possibly shared).
            assert sig.popcount() >= CONFIG.partitions


def _partition_loop_overlap(config, a, b):
    """The per-partition shift loop ``BloomSignature.intersects`` ran
    before the raw-int predicate: every partition's AND non-zero."""
    both = a & b
    if both == 0:
        return False
    width = config.partition_bits
    mask = (1 << width) - 1
    for _ in range(config.partitions):
        if both & mask == 0:
            return False
        both >>= width
    return True


OVERLAP_CONFIGS = [
    SignatureConfig(bits=512, partitions=4),
    SignatureConfig(bits=512, partitions=8),
    SignatureConfig(bits=64, partitions=2),
]
# A narrow address range so real overlaps are common next to aliases.
dense_sets = st.sets(st.integers(min_value=0, max_value=4096), max_size=24)


class TestOverlapPredicate:
    @settings(max_examples=150)
    @given(st.sampled_from(OVERLAP_CONFIGS), dense_sets, dense_sets)
    def test_raw_predicate_equals_intersects_and_partition_loop(self, config, a, b):
        sa, sb = config.of(a), config.of(b)
        raw = config.overlaps(sa.raw, sb.raw)
        assert raw == sa.intersects(sb)
        assert raw == _partition_loop_overlap(config, sa.raw, sb.raw)
        if a & b:
            assert raw

    @given(st.sampled_from(OVERLAP_CONFIGS), st.integers(min_value=0, max_value=2**512 - 1))
    def test_raw_predicate_on_arbitrary_bit_patterns(self, config, raw):
        raw &= (1 << config.bits) - 1
        other = (1 << config.bits) - 1
        assert config.overlaps(raw, other) == _partition_loop_overlap(config, raw, other)
