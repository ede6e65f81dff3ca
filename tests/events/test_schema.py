"""Unit tests for schemas, domains, and the registry."""

import pytest

from repro.events.event import Event
from repro.events.schema import (
    AttributeSpec,
    Domain,
    EventSchema,
    SchemaError,
    SchemaRegistry,
    encode_registry,
    registry_from_dict,
)


class TestDomain:
    def test_contains(self):
        domain = Domain(0.0, 10.0)
        assert domain.contains(0.0)
        assert domain.contains(10.0)
        assert domain.contains(5.5)
        assert not domain.contains(-0.1)
        assert not domain.contains(10.1)

    def test_inverted_bounds_rejected(self):
        with pytest.raises(SchemaError, match="exceeds upper bound"):
            Domain(2.0, 1.0)

    def test_degenerate_domain_allowed(self):
        assert Domain(3.0, 3.0).contains(3.0)


class TestAttributeSpec:
    def test_unknown_dtype_rejected(self):
        with pytest.raises(SchemaError, match="unknown dtype"):
            AttributeSpec("x", "decimal")

    def test_domain_on_string_rejected(self):
        with pytest.raises(SchemaError, match="only valid for numeric"):
            AttributeSpec("name", "str", Domain(0, 1))

    @pytest.mark.parametrize(
        "dtype,value",
        [("int", 3), ("float", 3.5), ("float", 3), ("str", "hi"), ("bool", True)],
    )
    def test_validate_accepts_matching_values(self, dtype, value):
        AttributeSpec("x", dtype).validate(value)

    @pytest.mark.parametrize(
        "dtype,value",
        [("int", 3.5), ("int", "3"), ("float", "3.5"), ("str", 3), ("bool", 1)],
    )
    def test_validate_rejects_mismatched_values(self, dtype, value):
        with pytest.raises(SchemaError):
            AttributeSpec("x", dtype).validate(value)

    def test_bool_rejected_for_numeric_dtypes(self):
        with pytest.raises(SchemaError, match="got bool"):
            AttributeSpec("x", "int").validate(True)

    def test_domain_violation(self):
        spec = AttributeSpec("x", "float", Domain(0, 10))
        spec.validate(10.0)
        with pytest.raises(SchemaError, match="outside domain"):
            spec.validate(10.5)


class TestEventSchema:
    def test_duplicate_attribute_rejected(self):
        with pytest.raises(SchemaError, match="duplicate attribute"):
            EventSchema("A", (AttributeSpec("x"), AttributeSpec("x")))

    def test_build_convenience(self):
        schema = EventSchema.build(
            "Buy", symbol="str", price=("float", Domain(0, 100))
        )
        assert schema.attribute("symbol").dtype == "str"
        assert schema.attribute("price").domain == Domain(0, 100)

    def test_validate_wrong_type_name(self):
        schema = EventSchema.build("A", x="int")
        with pytest.raises(SchemaError, match="does not match schema"):
            schema.validate(Event("B", 0, x=1))

    def test_validate_missing_required(self):
        schema = EventSchema.build("A", x="int")
        with pytest.raises(SchemaError, match="missing required"):
            schema.validate(Event("A", 0))

    def test_optional_attribute_may_be_absent(self):
        schema = EventSchema("A", (AttributeSpec("x", "int", required=False),))
        schema.validate(Event("A", 0))

    def test_optional_attribute_validated_when_present(self):
        schema = EventSchema("A", (AttributeSpec("x", "int", required=False),))
        with pytest.raises(SchemaError):
            schema.validate(Event("A", 0, x="oops"))

    def test_extra_attributes_allowed(self):
        EventSchema.build("A", x="int").validate(Event("A", 0, x=1, extra="ok"))

    def test_attribute_names(self):
        schema = EventSchema.build("A", x="int", y="float")
        assert sorted(schema.attribute_names()) == ["x", "y"]


class TestSchemaRegistry:
    def make_registry(self) -> SchemaRegistry:
        return SchemaRegistry(
            [EventSchema.build("A", x=("float", Domain(0, 1))), EventSchema.build("B", y="str")]
        )

    def test_lookup(self):
        registry = self.make_registry()
        assert registry.get("A") is not None
        assert registry.get("Z") is None
        assert "A" in registry and "Z" not in registry
        assert len(registry) == 2

    def test_register_replaces(self):
        registry = self.make_registry()
        registry.register(EventSchema.build("A", x="int"))
        assert registry.get("A").attribute("x").dtype == "int"
        assert len(registry) == 2

    def test_validate_unknown_type_lenient(self):
        self.make_registry().validate(Event("Z", 0))

    def test_validate_unknown_type_strict(self):
        with pytest.raises(SchemaError, match="no schema registered"):
            self.make_registry().validate(Event("Z", 0), strict=True)

    def test_validate_known_type(self):
        registry = self.make_registry()
        registry.validate(Event("A", 0, x=0.5))
        with pytest.raises(SchemaError):
            registry.validate(Event("A", 0, x=2.0))

    def test_domain_of(self):
        registry = self.make_registry()
        assert registry.domain_of("A", "x") == Domain(0, 1)
        assert registry.domain_of("A", "missing") is None
        assert registry.domain_of("B", "y") is None  # strings have no domain
        assert registry.domain_of("Z", "x") is None

    def test_iteration(self):
        types = {schema.event_type for schema in self.make_registry()}
        assert types == {"A", "B"}


class TestRegistryDictForm:
    def test_encode_registry_round_trips(self):
        registry = SchemaRegistry(
            [
                EventSchema(
                    "Buy",
                    (
                        AttributeSpec("symbol", "str"),
                        AttributeSpec("price", "float", Domain(0.5, 1e4)),
                        AttributeSpec("volume", "int", Domain(1, 1000)),
                        AttributeSpec("note", "str", required=False),
                    ),
                ),
                EventSchema("Tick", (AttributeSpec("halted", "bool", required=False),)),
                EventSchema("Empty", ()),
            ]
        )
        spec = encode_registry(registry)
        assert spec["Buy"]["price"] == {
            "dtype": "float",
            "required": True,
            "domain": [0.5, 1e4],
        }
        assert spec["Buy"]["note"] == {"dtype": "str", "required": False}
        assert list(registry_from_dict(spec)) == list(registry)
        assert encode_registry(registry_from_dict(spec)) == spec
