"""Failure injection and degenerate-input behaviour across modules.

A production library must fail loudly on bad input and degrade gracefully
on empty-but-valid input; these tests pin both down for every layer.
"""

from __future__ import annotations

import math
import warnings

import pytest

from repro import (
    POI,
    POISet,
    Photo,
    PhotoSet,
    QueryError,
    SOIEngine,
    STRelDivDescriber,
    StreetProfile,
    build_street_profile,
)
from repro.core.soi_baseline import BaselineSOI
from repro.data.keywords import KeywordFrequencyVector
from repro.geometry.bbox import BBox
from repro.serve.server import DescribeRequest, SOIRequest, serve_request


class TestEmptyData:
    def test_engine_with_no_pois(self, cross_network):
        engine = SOIEngine(cross_network, POISet([]), cell_size=0.2)
        assert engine.top_k(["shop"], k=3, eps=0.1) == []
        assert BaselineSOI(engine).top_k(["shop"], k=3, eps=0.1) == []

    def test_engine_with_keywordless_pois(self, cross_network):
        pois = POISet([POI(0, 0.1, 0.1), POI(1, 0.2, 0.2)])
        engine = SOIEngine(cross_network, pois, cell_size=0.2)
        assert engine.top_k(["shop"], k=3, eps=0.1) == []

    def test_profile_with_no_photos(self, cross_network):
        main = cross_network.street_by_name("Main Street")
        profile = build_street_profile(cross_network, main.id,
                                       PhotoSet([]), eps=0.1)
        assert len(profile) == 0
        assert STRelDivDescriber(profile).select(3) == []

    def test_profile_with_tagless_photos(self, cross_network):
        main = cross_network.street_by_name("Main Street")
        photos = PhotoSet([Photo(i, 0.1 * i, 0.0) for i in range(4)])
        profile = build_street_profile(cross_network, main.id, photos,
                                       eps=0.5)
        selected = STRelDivDescriber(profile).select(2)
        assert len(selected) == 2
        # tagless photos: textual relevance must be all-zero, not NaN
        assert profile.textual_rel.tolist() == [0.0] * len(profile)

    def test_single_photo_summary(self, cross_network):
        main = cross_network.street_by_name("Main Street")
        photos = PhotoSet([Photo(0, 0.1, 0.0, frozenset({"only"}))])
        profile = build_street_profile(cross_network, main.id, photos,
                                       eps=0.5)
        assert STRelDivDescriber(profile).select(5) == [0]


class TestParameterAbuse:
    def test_engine_rejects_bad_parameters_before_work(self, cross_network,
                                                       cross_pois):
        engine = SOIEngine(cross_network, cross_pois, cell_size=0.2)
        for bad in (dict(keywords=[], k=1, eps=0.1),
                    dict(keywords=["shop"], k=0, eps=0.1),
                    dict(keywords=["shop"], k=-3, eps=0.1),
                    dict(keywords=["shop"], k=1, eps=0.0)):
            with pytest.raises(QueryError):
                engine.top_k(**bad)

    @pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf])
    def test_non_finite_eps_rejected_before_any_kernel(self, small_city,
                                                       small_engine, eps):
        """Non-finite eps is a QueryError at the boundary: no NumPy
        warning from the grid, no raw IndexError, no silent ``[]``."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(QueryError, match="eps"):
                small_engine.top_k(["shop"], k=3, eps=eps)
            with pytest.raises(QueryError, match="eps"):
                serve_request(small_engine, small_city.photos,
                              SOIRequest(("shop",), 3, eps=eps))

    @pytest.mark.parametrize("street_id", [-1, 10**9])
    def test_describe_unknown_street_names_the_id(self, small_city,
                                                  small_engine, street_id):
        with pytest.raises(QueryError, match=f"street id {street_id}"):
            serve_request(small_engine, small_city.photos,
                          DescribeRequest(street_id, 3))

    @pytest.mark.parametrize("eps", [math.nan, math.inf, -0.5])
    def test_describe_bad_eps_rejected(self, small_city, small_engine, eps):
        street_id = small_engine.top_k(["shop"], k=1)[0].street_id
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(QueryError, match="eps"):
                serve_request(small_engine, small_city.photos,
                              DescribeRequest(street_id, 3, eps=eps))

    @pytest.mark.parametrize("k", [2.5, 3.0, "3", None, True])
    def test_non_integer_k_rejected_at_the_boundary(self, small_city,
                                                    small_engine, k):
        """A k that is not an integer is a QueryError for both request
        kinds: no raw TypeError from a slice, no silently rounded k."""
        street_id = small_engine.top_k(["shop"], k=1)[0].street_id
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(QueryError, match="k must be an integer"):
                serve_request(small_engine, small_city.photos,
                              SOIRequest(("shop",), k))
            with pytest.raises(QueryError, match="k must be an integer"):
                serve_request(small_engine, small_city.photos,
                              DescribeRequest(street_id, k))

    def test_unknown_strategy_rejected_at_the_boundary(self, small_city,
                                                       small_engine):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(QueryError, match="strategy 'bogus'"):
                serve_request(small_engine, small_city.photos,
                              SOIRequest(("shop",), 3, strategy="bogus"))

    @pytest.mark.parametrize("rho", [math.inf, math.nan, -math.inf, 0.0,
                                     -0.001])
    def test_describe_bad_rho_rejected(self, small_city, small_engine, rho):
        """rho must be positive and finite: inf used to return the same
        photo twice in one summary, NaN a raw ValueError."""
        street_id = small_engine.top_k(["shop"], k=1)[0].street_id
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(QueryError, match="rho"):
                serve_request(small_engine, small_city.photos,
                              DescribeRequest(street_id, 3, rho=rho))

    def test_describer_rejects_bad_parameters(self, cross_network):
        main = cross_network.street_by_name("Main Street")
        photos = PhotoSet([Photo(0, 0.1, 0.0, frozenset({"x"}))])
        profile = build_street_profile(cross_network, main.id, photos,
                                       eps=0.5)
        describer = STRelDivDescriber(profile)
        for k, lam, w in ((0, 0.5, 0.5), (1, -0.1, 0.5), (1, 0.5, 1.1)):
            with pytest.raises(QueryError):
                describer.select(k, lam, w)

    def test_profile_guards_normalisers(self):
        photos = PhotoSet([Photo(0, 0, 0, frozenset({"a"}))])
        phi = KeywordFrequencyVector({"a": 1.0})
        with pytest.raises(QueryError):
            StreetProfile(photos, phi, max_d=0.0,
                          extent=BBox(0, 0, 1, 1), rho=0.1)
        with pytest.raises(QueryError):
            StreetProfile(photos, phi, max_d=1.0,
                          extent=BBox(0, 0, 1, 1), rho=-1.0)


class TestOutOfExtentData:
    def test_pois_beyond_network_extent_still_counted(self, cross_network):
        """The engine extent covers the POI cloud, not just the network."""
        pois = POISet([
            POI(0, 0.1, 0.05, frozenset({"shop"})),
            POI(1, 30.0, 30.0, frozenset({"shop"})),  # far outside network
        ])
        engine = SOIEngine(cross_network, pois, cell_size=0.2)
        results = engine.top_k(["shop"], k=2, eps=0.15)
        # The near-corner POI is within eps of BOTH crossing streets (the
        # paper's non-exclusive assignment, Section 1); the distant POI
        # contributes to neither.
        assert {r.street_name for r in results} == \
            {"Main Street", "Cross Street"}
        assert all(r.interest > 0 for r in results)

    def test_poi_exactly_at_eps_boundary_counts(self, cross_network):
        pois = POISet([POI(0, 0.5, 0.15, frozenset({"shop"}))])
        engine = SOIEngine(cross_network, pois, cell_size=0.2)
        # dist to Main Street's y=0 span is exactly 0.15
        results = engine.top_k(["shop"], k=1, eps=0.15)
        assert len(results) == 1


class TestTieHandling:
    def test_identical_streets_tie_break_by_id(self):
        """Two geometrically identical parallel streets with identical POI
        support must rank by street id."""
        from repro.network.builder import RoadNetworkBuilder

        builder = RoadNetworkBuilder()
        a0 = builder.add_vertex(0.0, 0.0)
        a1 = builder.add_vertex(1.0, 0.0)
        b0 = builder.add_vertex(0.0, 10.0)
        b1 = builder.add_vertex(1.0, 10.0)
        builder.add_street("First", [a0, a1])
        builder.add_street("Second", [b0, b1])
        network = builder.build()
        pois = POISet([
            POI(0, 0.5, 0.01, frozenset({"shop"})),
            POI(1, 0.5, 10.01, frozenset({"shop"})),
        ])
        engine = SOIEngine(network, pois, cell_size=0.5)
        results = engine.top_k(["shop"], k=2, eps=0.1)
        assert [r.street_name for r in results] == ["First", "Second"]
        assert results[0].interest == pytest.approx(results[1].interest)
