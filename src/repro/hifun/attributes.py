"""The HIFUN functional algebra over RDF attributes (§2.5, §4.2.4).

Attributes are *functions* from data items to values.  Over RDF, a direct
attribute is a property; complex attributes are built with:

* **composition** (``∘``): ``brand ∘ delivers`` maps an invoice to the
  brand of the delivered product — a property path.  In code, paths read
  left-to-right in application order: ``delivers >> brand``.
* **pairing** (``⊗``): ``takesPlaceAt ⊗ delivers`` maps an invoice to the
  pair (branch, product) — multi-attribute grouping.  In code: ``a & b``.
* **derived attributes**: ``month ∘ date`` extracts the month from a date
  value; represented by :class:`Derived` wrapping a SPARQL builtin.

All nodes are immutable and hashable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.rdf.terms import IRI

#: SPARQL builtins allowed as derived attributes (single-argument).
DERIVED_FUNCTIONS = frozenset(
    {
        "YEAR", "MONTH", "DAY", "HOURS", "MINUTES", "SECONDS",
        "STR", "UCASE", "LCASE", "STRLEN", "ABS", "CEIL", "FLOOR", "ROUND",
    }
)


class AttributeExpr:
    """Base class for attribute expressions; provides operator sugar.

    * ``a >> b`` — composition in application order (``b ∘ a``);
    * ``a & b`` — pairing (``a ⊗ b``).
    """

    __slots__ = ()

    def __rshift__(self, other: "AttributeExpr") -> "Composition":
        return compose_path(self, other)

    def __and__(self, other: "AttributeExpr") -> "Pairing":
        return pair(self, other)

    def steps(self) -> Tuple["AttributeExpr", ...]:
        """Flat application-order steps (for paths); a leaf returns itself."""
        return (self,)


@dataclass(frozen=True)
class Attribute(AttributeExpr):
    """A direct attribute: an RDF property viewed as a function.

    ``inverse=True`` uses the property in the object→subject direction
    (``p⁻¹`` in §5.3.1).
    """

    prop: IRI
    inverse: bool = False

    def __post_init__(self):
        if not isinstance(self.prop, IRI):
            raise TypeError(f"Attribute property must be an IRI, got {self.prop!r}")

    @property
    def name(self) -> str:
        suffix = "⁻¹" if self.inverse else ""
        return self.prop.local_name() + suffix

    def __str__(self):
        return self.name

    def __repr__(self):
        return f"Attribute({self.name})"


@dataclass(frozen=True)
class Composition(AttributeExpr):
    """``f_k ∘ ... ∘ f_1`` stored in *application order* (f_1 first).

    Every element of ``parts`` is an :class:`Attribute` or a
    :class:`Derived`-wrapped leaf; nested compositions are flattened by
    the constructors below.
    """

    parts: Tuple[AttributeExpr, ...]

    def __post_init__(self):
        if len(self.parts) < 2:
            raise ValueError("a composition needs at least two parts")
        for part in self.parts:
            if isinstance(part, (Composition, Pairing)):
                raise TypeError(
                    "composition parts must be flat leaves; use compose()/>>"
                )

    def steps(self) -> Tuple[AttributeExpr, ...]:
        return self.parts

    @property
    def name(self) -> str:
        # math order for display: f_k ∘ ... ∘ f_1
        return " ∘ ".join(str(p) for p in reversed(self.parts))

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class Derived(AttributeExpr):
    """A derived attribute ``f ∘ base`` where ``f`` is a value function.

    ``function`` is the (upper-case) name of a SPARQL builtin; ``base``
    is the attribute whose values are transformed (§4.2.4, Algorithm 3).
    """

    function: str
    base: AttributeExpr

    def __post_init__(self):
        fn = self.function.upper()
        if fn not in DERIVED_FUNCTIONS:
            raise ValueError(
                f"unsupported derived function {self.function!r}; "
                f"expected one of {sorted(DERIVED_FUNCTIONS)}"
            )
        object.__setattr__(self, "function", fn)
        if isinstance(self.base, Pairing):
            raise TypeError("derived attributes cannot wrap a pairing")

    def steps(self):
        return self.base.steps() + (self,)

    @property
    def name(self) -> str:
        return f"{self.function.lower()} ∘ {self.base}"

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class Pairing(AttributeExpr):
    """``g_1 ⊗ ... ⊗ g_k``: group by several attributes at once.

    Each component is a path (attribute, composition or derived) — this is
    exactly the *pairing over compositions* shape of Algorithm 2.
    """

    components: Tuple[AttributeExpr, ...]

    def __post_init__(self):
        if len(self.components) < 2:
            raise ValueError("a pairing needs at least two components")
        for component in self.components:
            if isinstance(component, Pairing):
                raise TypeError("pairings must be flat; use pair() to combine")

    @property
    def name(self) -> str:
        return " ⊗ ".join(str(c) for c in self.components)

    def __str__(self):
        return self.name


def compose(*parts_math_order: AttributeExpr) -> AttributeExpr:
    """Compose attributes in *mathematical* order: ``compose(f2, f1)`` is
    ``f2 ∘ f1`` (apply ``f1`` first).  Mirrors the dissertation notation."""
    return compose_path(*reversed(parts_math_order))


def compose_path(*parts_application_order: AttributeExpr) -> AttributeExpr:
    """Compose attributes in *application* order (path order)."""
    flat: list = []
    derived_tail: list = []
    for part in parts_application_order:
        if isinstance(part, Pairing):
            raise TypeError("cannot compose a pairing into a path")
        if derived_tail:
            raise TypeError("a derived attribute must be the last step of a path")
        if isinstance(part, Composition):
            flat.extend(part.parts)
        elif isinstance(part, Derived):
            # Inline the derived base then remember to re-wrap.
            base = compose_path(*part.base.steps()) if len(part.base.steps()) > 1 else part.base
            if isinstance(base, Composition):
                flat.extend(base.parts)
            else:
                flat.append(base)
            derived_tail.append(part.function)
        else:
            flat.append(part)
    if len(flat) == 0:
        raise ValueError("empty composition")
    result: AttributeExpr = flat[0] if len(flat) == 1 else Composition(tuple(flat))
    for function in derived_tail:
        result = Derived(function, result)
    return result


def pair(*components: AttributeExpr) -> AttributeExpr:
    """Pair attributes (``⊗``), flattening nested pairings."""
    flat: list = []
    for component in components:
        if isinstance(component, Pairing):
            flat.extend(component.components)
        else:
            flat.append(component)
    if len(flat) == 1:
        return flat[0]
    return Pairing(tuple(flat))


def paths_of(expr: AttributeExpr) -> Tuple[AttributeExpr, ...]:
    """The path components of an expression: a pairing's components, or
    the expression itself."""
    if isinstance(expr, Pairing):
        return expr.components
    return (expr,)
