"""Shared fixtures: the bundled datasets, sessions and endpoints."""

import pytest
from hypothesis import settings

from repro.datasets import invoices_graph, products_graph
from repro.facets import FacetedAnalyticsSession, FacetedSession

#: ``make fuzz`` (``--hypothesis-profile=fuzz``): a property runs long, at
#: a random seed, where tier-1 runs it at its own fixed size.
settings.register_profile("fuzz", max_examples=10_000, derandomize=False,
                          deadline=None)


@pytest.fixture()
def products():
    return products_graph()


@pytest.fixture()
def invoices():
    return invoices_graph()


@pytest.fixture()
def session(products):
    return FacetedSession(products)


@pytest.fixture()
def analytics(products):
    return FacetedAnalyticsSession(products)
