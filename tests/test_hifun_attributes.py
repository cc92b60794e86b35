"""Tests of the HIFUN functional algebra (attribute expressions)."""

import pytest

from repro.rdf.namespace import EX
from repro.hifun.attributes import (
    Attribute,
    Composition,
    Derived,
    Pairing,
    compose,
    compose_path,
    pair,
    paths_of,
)


@pytest.fixture()
def attrs():
    return (
        Attribute(EX.takesPlaceAt),
        Attribute(EX.delivers),
        Attribute(EX.brand),
        Attribute(EX.hasDate),
    )


class TestAttribute:
    def test_requires_iri(self):
        with pytest.raises(TypeError):
            Attribute("not-an-iri")

    def test_name_and_inverse(self):
        assert Attribute(EX.brand).name == "brand"
        assert Attribute(EX.brand, inverse=True).name == "brand⁻¹"

    def test_hashable_equality(self):
        assert Attribute(EX.brand) == Attribute(EX.brand)
        assert len({Attribute(EX.brand), Attribute(EX.brand)}) == 1


class TestComposition:
    def test_math_order(self, attrs):
        _, delivers, brand, _ = attrs
        expr = compose(brand, delivers)  # brand ∘ delivers: delivers first
        assert isinstance(expr, Composition)
        assert expr.parts == (delivers, brand)

    def test_application_order_operator(self, attrs):
        _, delivers, brand, _ = attrs
        assert (delivers >> brand) == compose(brand, delivers)

    def test_flattening(self, attrs):
        takes, delivers, brand, _ = attrs
        nested = compose_path(compose_path(takes, delivers), brand)
        assert nested.parts == (takes, delivers, brand)

    def test_single_part_collapses(self, attrs):
        takes = attrs[0]
        assert compose_path(takes) is takes

    def test_needs_two_parts(self, attrs):
        with pytest.raises(ValueError):
            Composition((attrs[0],))

    def test_rejects_nested_pairing(self, attrs):
        takes, delivers, *_ = attrs
        with pytest.raises(TypeError):
            compose_path(pair(takes, delivers), takes)

    def test_display_name_is_math_order(self, attrs):
        _, delivers, brand, _ = attrs
        assert str(delivers >> brand) == "brand ∘ delivers"


class TestDerived:
    def test_valid_function(self, attrs):
        date = attrs[3]
        derived = Derived("month", date)
        assert derived.function == "MONTH"
        assert "month" in str(derived)

    def test_unknown_function_rejected(self, attrs):
        with pytest.raises(ValueError):
            Derived("FROBNICATE", attrs[3])

    def test_cannot_wrap_pairing(self, attrs):
        takes, delivers, *_ = attrs
        with pytest.raises(TypeError):
            Derived("YEAR", pair(takes, delivers))

    def test_derived_must_be_tail_of_path(self, attrs):
        takes, _, _, date = attrs
        with pytest.raises(TypeError):
            compose_path(Derived("YEAR", date), takes)

    def test_derived_tail_composes(self, attrs):
        takes, _, _, date = attrs
        expr = compose_path(takes, Derived("YEAR", date))
        assert isinstance(expr, Derived)
        assert isinstance(expr.base, Composition)


class TestPairing:
    def test_flat(self, attrs):
        takes, delivers, brand, _ = attrs
        p = pair(takes, pair(delivers, brand))
        assert isinstance(p, Pairing)
        assert p.components == (takes, delivers, brand)

    def test_single_component_collapses(self, attrs):
        assert pair(attrs[0]) is attrs[0]

    def test_operator_sugar(self, attrs):
        takes, delivers, *_ = attrs
        assert (takes & delivers) == pair(takes, delivers)

    def test_is_not_a_path(self, attrs):
        takes, delivers, *_ = attrs
        assert len(paths_of(pair(takes, delivers))) == 2
        assert paths_of(takes) == (takes,)

    def test_paths_of(self, attrs):
        takes, delivers, *_ = attrs
        assert paths_of(pair(takes, delivers)) == (takes, delivers)
        assert paths_of(takes) == (takes,)

    def test_pairing_of_compositions(self, attrs):
        takes, delivers, brand, _ = attrs
        p = pair(takes, delivers >> brand)
        assert len(p.components) == 2
        assert isinstance(p.components[1], Composition)
