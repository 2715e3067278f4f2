"""Tests for the engine backend registry and factory."""

import pytest

from repro.core.domain import bit_length_for
from repro.core.errors import DomainError, UnknownBackendError
from repro.core.interval import IntervalCollection, Query
from repro.engine import (
    IntervalStore,
    available_backends,
    backend_specs,
    create_index,
    get_backend,
    get_spec,
    register_backend,
    resolve_backend,
)
from repro.hint.model import DatasetStatistics, estimate_m_opt

ALL_BACKENDS = (
    "naive",
    "interval_tree",
    "grid1d",
    "timeline",
    "period",
    "hint_cf",
    "hintm",
    "hintm_sub",
    "hintm_opt",
    "hintm_hybrid",
)

#: small-scale construction parameters, passed identically to the registry
#: factory and to the legacy ``cls.build`` path
SMALL_KWARGS = {
    "grid1d": {"num_partitions": 32},
    "timeline": {"num_checkpoints": 20},
    "period": {"num_coarse_partitions": 10, "num_levels": 3},
    "hintm": {"num_bits": 8},
    "hintm_sub": {"num_bits": 8},
    "hintm_opt": {"num_bits": 8},
    "hintm_hybrid": {"num_bits": 8},
}


def _queries(collection):
    lo, hi = collection.span()
    third = (hi - lo) // 3
    return [
        Query(lo + third, lo + third + (hi - lo) // 50),
        Query(lo, hi),
        Query.stabbing(lo + third),
    ]


class TestRegistry:
    def test_all_ten_backends_registered(self):
        assert set(ALL_BACKENDS) <= set(available_backends())

    def test_aliases_resolve_to_canonical_names(self):
        assert resolve_backend("hint-m-opt") == "hintm_opt"
        assert resolve_backend("1d-grid") == "grid1d"
        assert resolve_backend("interval-tree") == "interval_tree"
        assert resolve_backend("hint") == "hint_cf"
        assert resolve_backend("naive-scan") == "naive"

    def test_unknown_backend_raises(self, synthetic_collection):
        with pytest.raises(UnknownBackendError):
            create_index("b-tree", synthetic_collection)
        # UnknownBackendError is a KeyError for legacy callers
        with pytest.raises(KeyError):
            resolve_backend("b-tree")

    def test_duplicate_registration_rejected(self):
        from repro.baselines.naive import NaiveIndex  # already holds "naive"

        with pytest.raises(ValueError):

            @register_backend("naive")
            class Impostor(NaiveIndex):
                pass

    def test_specs_expose_class_and_paper_section(self):
        by_name = {spec.name: spec for spec in backend_specs()}
        assert by_name["hintm_opt"].cls.__name__ == "OptimizedHINTm"
        assert "4.2" in by_name["hintm_opt"].paper_section
        assert by_name["hintm_opt"].aliases == ("hint-m-opt",)


class TestCreateIndex:
    @pytest.mark.parametrize(
        "name", [spec.name for spec in backend_specs() if not spec.composite]
    )
    def test_every_backend_answers_like_the_oracle(self, synthetic_collection, name):
        from repro.baselines.naive import NaiveIndex

        lo, hi = synthetic_collection.span()
        q = Query(lo + (hi - lo) // 3, lo + (hi - lo) // 3 + (hi - lo) // 100)
        expected = sorted(NaiveIndex.build(synthetic_collection).query(q))
        assert sorted(create_index(name, synthetic_collection).query(q)) == expected

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_every_backend_constructible_with_defaults(self, synthetic_collection, name):
        index = create_index(name, synthetic_collection)
        assert len(index) == len(synthetic_collection)

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_store_matches_legacy_query_path(self, synthetic_collection, name):
        """store.query().overlapping(a, b).ids() == legacy build(...).query(Query(a, b))."""
        kwargs = dict(SMALL_KWARGS.get(name, {}))
        if name == "hint_cf":
            _, hi = synthetic_collection.span()
            kwargs["num_bits"] = bit_length_for(hi + 1)
        store = IntervalStore(create_index(name, synthetic_collection, **kwargs))
        legacy = get_backend(name).build(synthetic_collection, **kwargs)
        for query in _queries(synthetic_collection):
            via_store = sorted(store.query().overlapping(query.start, query.end).ids())
            via_legacy = sorted(legacy.query(query))
            assert via_store == via_legacy, (name, query)
            # and both agree with the brute-force oracle
            oracle = sorted(synthetic_collection.query_ids(query).tolist())
            assert via_store == oracle, (name, query)

    def test_auto_num_bits_uses_the_model(self, synthetic_collection):
        """``auto`` is the priced model's ``m_opt`` for the collection's own
        statistics: no cap, nothing timed, the same ``m`` on every open."""
        stats = DatasetStatistics.from_collection(synthetic_collection)
        expected = estimate_m_opt(stats, 0.001 * stats.domain_length)
        for backend in ("hintm", "hintm_opt", "hintm_hybrid"):
            index = create_index(backend, synthetic_collection, num_bits="auto")
            assert index.num_bits == expected

    def test_auto_num_bits_honours_query_extent_hint(self, synthetic_collection):
        broad = create_index(
            "hintm_opt", synthetic_collection, num_bits="auto",
            query_extent=synthetic_collection.domain_length() // 2,
        )
        assert 1 <= broad.num_bits <= 16

    def test_discrete_backend_defaults_to_exact_bits(self, synthetic_collection):
        index = create_index("hint_cf", synthetic_collection)
        _, hi = synthetic_collection.span()
        assert index.num_bits == bit_length_for(hi + 1)

    def test_discrete_backend_rejects_negative_endpoints(self):
        collection = IntervalCollection.from_pairs([(-5, 3), (1, 2)])
        with pytest.raises(DomainError):
            create_index("hint_cf", collection)

    def test_legacy_alias_builds_same_class(self, synthetic_collection):
        via_alias = create_index("hint-m-opt", synthetic_collection, num_bits=7)
        assert type(via_alias).__name__ == "OptimizedHINTm"
        assert via_alias.num_bits == 7

    def test_empty_collection(self):
        index = create_index("hintm_opt", IntervalCollection.empty(), num_bits="auto")
        assert len(index) == 0
        assert index.query(Query(0, 10)).tolist() == []


class TestLegacyNames:
    #: the paper-comparison names the benchmark code used before the registry
    LEGACY = {
        "naive-scan": "naive", "interval-tree": "interval_tree", "1d-grid": "grid1d",
        "timeline": "timeline", "period-index": "period", "hint": "hint_cf",
        "hint-m": "hintm", "hint-m-subs": "hintm_sub", "hint-m-opt": "hintm_opt",
        "hint-m-hybrid": "hintm_hybrid",
    }

    @pytest.mark.parametrize("legacy", sorted(LEGACY))
    def test_legacy_name_builds_the_canonical_backend(self, synthetic_collection, legacy):
        index = create_index(legacy, synthetic_collection)
        assert type(index) is get_spec(self.LEGACY[legacy]).cls

    def test_open_store_defaults_to_auto_tuning(self, synthetic_collection):
        store = IntervalStore.open(synthetic_collection)
        assert store.backend == "hintm_opt"
        assert 1 <= store.index.num_bits <= 16


def test_get_spec_flags():
    assert get_spec("hintm_opt").tunable
    assert not get_spec("grid1d").tunable
    assert get_spec("hint_cf").discrete_domain
