"""Event schemas: attribute typing and value domains.

Schemas are optional for plain pattern matching — the engine happily matches
untyped events — but they serve two purposes:

1. **Validation**: an engine configured with a registry rejects events whose
   payload does not conform, turning silent garbage into loud errors.
2. **Score-bound pruning**: the ranking optimiser
   (:mod:`repro.ranking.pruning`) needs upper/lower bounds for attributes of
   *not-yet-bound* pattern variables.  Declaring ``Domain(lo, hi)`` on a
   numeric attribute supplies those bounds; without a domain the attribute
   is unbounded and scoring expressions over it cannot be pruned.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isfinite
from typing import Any, Iterable, Iterator, Mapping

from repro.events.event import Event

#: Types accepted for attribute values, keyed by declaration name.
_DTYPES: dict[str, tuple[type, ...]] = {
    "int": (int,),
    "float": (int, float),
    "str": (str,),
    "bool": (bool,),
}


#: Exact types the compiled check accepts without a closer look, per
#: dtype: ``type(value) in ...`` never admits ``bool`` as a number, nor a
#: subclass (those take the :meth:`AttributeSpec.validate` path).
_EXACT_TYPES: dict[str, frozenset[type]] = {
    "int": frozenset({int}),
    "float": frozenset({int, float}),
    "str": frozenset({str}),
    "bool": frozenset({bool}),
}


class SchemaError(ValueError):
    """Raised on schema declaration or event validation failures."""


@dataclass(frozen=True)
class Domain:
    """Closed numeric value domain ``[lo, hi]`` for an attribute.

    Used by interval evaluation to bound scores of partial matches.
    """

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise SchemaError(f"domain lower bound {self.lo} exceeds upper bound {self.hi}")

    def contains(self, value: float) -> bool:
        """Whether ``value`` lies within the domain."""
        return self.lo <= value <= self.hi


@dataclass(frozen=True)
class AttributeSpec:
    """Declaration of one event attribute.

    Parameters
    ----------
    name:
        Attribute name as it appears in event payloads and queries.
    dtype:
        One of ``"int"``, ``"float"``, ``"str"``, ``"bool"``.
    domain:
        Optional numeric :class:`Domain`; only valid for ``int``/``float``.
    required:
        When ``True`` (default) validation fails if the attribute is absent.
    """

    name: str
    dtype: str = "float"
    domain: Domain | None = None
    required: bool = True

    def __post_init__(self) -> None:
        if self.dtype not in _DTYPES:
            raise SchemaError(
                f"unknown dtype {self.dtype!r} for attribute {self.name!r}; "
                f"expected one of {sorted(_DTYPES)}"
            )
        if self.domain is not None and self.dtype not in ("int", "float"):
            raise SchemaError(
                f"attribute {self.name!r}: domains are only valid for numeric dtypes"
            )

    def validate(self, value: Any) -> None:
        """Raise :class:`SchemaError` if ``value`` violates this spec."""
        expected = _DTYPES[self.dtype]
        # bool is a subclass of int; reject it for numeric dtypes explicitly.
        if isinstance(value, bool) and self.dtype != "bool":
            raise SchemaError(f"attribute {self.name!r}: expected {self.dtype}, got bool")
        if not isinstance(value, expected):
            raise SchemaError(
                f"attribute {self.name!r}: expected {self.dtype}, "
                f"got {type(value).__name__} ({value!r})"
            )
        if self.domain is not None and not self.domain.contains(float(value)):
            raise SchemaError(
                f"attribute {self.name!r}: value {value!r} outside domain "
                f"[{self.domain.lo}, {self.domain.hi}]"
            )


@dataclass(frozen=True)
class EventSchema:
    """Schema for one event type: a set of :class:`AttributeSpec`."""

    event_type: str
    attributes: tuple[AttributeSpec, ...] = ()
    _by_name: Mapping[str, AttributeSpec] = field(init=False, repr=False, compare=False, default=None)  # type: ignore[assignment]
    _checks: tuple = field(init=False, repr=False, compare=False, default=())

    def __post_init__(self) -> None:
        by_name: dict[str, AttributeSpec] = {}
        for spec in self.attributes:
            if spec.name in by_name:
                raise SchemaError(
                    f"schema {self.event_type!r}: duplicate attribute {spec.name!r}"
                )
            by_name[spec.name] = spec
        object.__setattr__(self, "_by_name", by_name)
        object.__setattr__(self, "_checks", tuple(_compile_check(s) for s in self.attributes))

    @classmethod
    def build(cls, event_type: str, **attrs: str | tuple[str, Domain]) -> "EventSchema":
        """Convenience constructor.

        ``EventSchema.build("Buy", symbol="str", price=("float", Domain(0, 1e4)))``
        """
        specs = []
        for name, decl in attrs.items():
            if isinstance(decl, tuple):
                dtype, domain = decl
                specs.append(AttributeSpec(name, dtype, domain))
            else:
                specs.append(AttributeSpec(name, decl))
        return cls(event_type, tuple(specs))

    def attribute(self, name: str) -> AttributeSpec | None:
        """Return the spec for ``name`` or ``None`` when undeclared."""
        return self._by_name.get(name)

    def attribute_names(self) -> Iterator[str]:
        return iter(self._by_name)

    def validate(self, event: Event) -> None:
        """Raise :class:`SchemaError` if ``event`` violates this schema.

        Reads the payload once, through the compiled checks: a value whose
        exact type is accepted and that lies in the domain passes on the
        spot; any other goes through :meth:`AttributeSpec.validate`, which
        raises the error (or, for a subclass, accepts it).  A fast pass
        implies a slow one, so the first error is the one the attribute
        order gives.
        """
        if event.event_type != self.event_type:
            raise SchemaError(
                f"event type {event.event_type!r} does not match schema "
                f"{self.event_type!r}"
            )
        payload = event.payload
        for name, types, lo, hi, required, spec in self._checks:
            if name not in payload:
                if required:
                    raise SchemaError(
                        f"event {event.event_type!r} missing required attribute "
                        f"{name!r}"
                    )
                continue
            value = payload[name]
            if type(value) in types and (lo is None or lo <= value <= hi):
                continue
            spec.validate(value)


def _compile_check(spec: AttributeSpec) -> tuple:
    """``spec``'s entry in :attr:`EventSchema._checks`: ``(name, exact
    types, lo, hi, required, spec)``, ``lo``/``hi`` ``None`` without a
    domain.  An ``int`` between finite bounds has its ``float`` between
    them too, and cannot overflow it; an infinite bound sends ints the
    slow way."""
    types = _EXACT_TYPES[spec.dtype]
    domain = spec.domain
    if domain is None:
        return (spec.name, types, None, None, spec.required, spec)
    if not (isfinite(domain.lo) and isfinite(domain.hi)):
        types = types - {int}
    return (spec.name, types, domain.lo, domain.hi, spec.required, spec)


class SchemaRegistry:
    """A collection of :class:`EventSchema`, one per event type.

    The registry is consulted by:

    * the engine facade, to validate ingested events (when strict mode on);
    * the language semantic analyser, to type-check attribute references;
    * the pruning optimiser, to look up attribute :class:`Domain` bounds.
    """

    def __init__(self, schemas: Iterable[EventSchema] = ()) -> None:
        self._schemas: dict[str, EventSchema] = {}
        for schema in schemas:
            self.register(schema)

    def register(self, schema: EventSchema) -> None:
        """Add or replace the schema for ``schema.event_type``."""
        self._schemas[schema.event_type] = schema

    def get(self, event_type: str) -> EventSchema | None:
        return self._schemas.get(event_type)

    def __contains__(self, event_type: str) -> bool:
        return event_type in self._schemas

    def __iter__(self) -> Iterator[EventSchema]:
        return iter(self._schemas.values())

    def __len__(self) -> int:
        return len(self._schemas)

    def validate(self, event: Event, strict: bool = False) -> None:
        """Validate ``event`` against its registered schema.

        When ``strict`` is true an event whose type has no registered schema
        is rejected; otherwise unknown types pass through.
        """
        schema = self._schemas.get(event.event_type)
        if schema is None:
            if strict:
                raise SchemaError(f"no schema registered for event type {event.event_type!r}")
            return
        schema.validate(event)

    def domain_of(self, event_type: str, attribute: str) -> Domain | None:
        """Return the declared domain for ``event_type.attribute``, if any."""
        schema = self._schemas.get(event_type)
        if schema is None:
            return None
        spec = schema.attribute(attribute)
        return spec.domain if spec is not None else None


def registry_from_dict(spec: Mapping[str, Mapping[str, Any]]) -> SchemaRegistry:
    """Build a registry from a plain-dict description (JSON-shaped).

    ::

        {
          "Buy": {
            "symbol": "str",
            "price": {"dtype": "float", "domain": [0, 10000]},
            "note":  {"dtype": "str", "required": false}
          }
        }

    Attribute values are either a dtype string or an object with ``dtype``
    plus optional ``domain`` (``[lo, hi]``) and ``required`` keys.
    """
    schemas: list[EventSchema] = []
    for event_type, attrs in spec.items():
        if not isinstance(attrs, Mapping):
            raise SchemaError(
                f"schema for {event_type!r} must be an object mapping "
                f"attribute names to declarations"
            )
        specs: list[AttributeSpec] = []
        for name, decl in attrs.items():
            if isinstance(decl, str):
                specs.append(AttributeSpec(name, decl))
                continue
            if not isinstance(decl, Mapping):
                raise SchemaError(
                    f"attribute {event_type}.{name}: declaration must be a "
                    f"dtype string or an object, got {type(decl).__name__}"
                )
            unknown = set(decl) - {"dtype", "domain", "required"}
            if unknown:
                raise SchemaError(
                    f"attribute {event_type}.{name}: unknown declaration "
                    f"keys {sorted(unknown)}"
                )
            domain = None
            if decl.get("domain") is not None:
                bounds = decl["domain"]
                if not isinstance(bounds, (list, tuple)) or len(bounds) != 2:
                    raise SchemaError(
                        f"attribute {event_type}.{name}: domain must be a "
                        f"[lo, hi] pair"
                    )
                domain = Domain(float(bounds[0]), float(bounds[1]))
            specs.append(
                AttributeSpec(
                    name,
                    decl.get("dtype", "float"),
                    domain,
                    bool(decl.get("required", True)),
                )
            )
        schemas.append(EventSchema(event_type, tuple(specs)))
    return SchemaRegistry(schemas)


def encode_registry(registry: SchemaRegistry) -> dict[str, dict[str, Any]]:
    """Inverse of :func:`registry_from_dict` (every declaration in its
    object form)."""
    spec: dict[str, dict[str, Any]] = {}
    for schema in registry:
        attrs: dict[str, Any] = {}
        for attribute in schema.attributes:
            decl: dict[str, Any] = {
                "dtype": attribute.dtype,
                "required": attribute.required,
            }
            if attribute.domain is not None:
                decl["domain"] = [attribute.domain.lo, attribute.domain.hi]
            attrs[attribute.name] = decl
        spec[schema.event_type] = attrs
    return spec


def load_registry(path: Any) -> SchemaRegistry:
    """Load a :func:`registry_from_dict`-shaped JSON file."""
    import json
    from pathlib import Path

    text = Path(path).read_text()
    try:
        spec = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"schema file {path}: invalid JSON ({exc})") from exc
    if not isinstance(spec, dict):
        raise SchemaError(f"schema file {path}: top level must be an object")
    return registry_from_dict(spec)
