"""Avro-style serialization and schema resolution."""

import io
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import (
    SchemaCompatibilityError,
    SchemaError,
    SerializationError,
)
from repro.common.serialization import (
    Field,
    RecordSchema,
    SchemaRegistry,
    check_compatible,
    decode_record,
    decode_with_resolution,
    encode_record,
)
from tests.common import avro_oracle as oracle

PROFILE_V1 = RecordSchema("Profile", [
    Field("member_id", "long"),
    Field("name", "string"),
    Field("headline", ["null", "string"]),
    Field("skills", {"array": "string"}, default=[], has_default=True),
])


def test_roundtrip_simple_record():
    record = {"member_id": 7, "name": "Reid", "headline": None, "skills": ["ceo"]}
    data = encode_record(PROFILE_V1, record)
    assert decode_record(PROFILE_V1, data) == record


def test_defaults_applied_on_encode():
    data = encode_record(PROFILE_V1, {"member_id": 1, "name": "x"})
    decoded = decode_record(PROFILE_V1, data)
    assert decoded["skills"] == []
    assert decoded["headline"] is None


def test_missing_required_field_rejected():
    with pytest.raises(SerializationError):
        encode_record(PROFILE_V1, {"name": "no id"})


def test_parse_and_to_json_roundtrip():
    spec = PROFILE_V1.to_json()
    parsed = RecordSchema.parse(spec)
    assert [f.name for f in parsed.fields] == [f.name for f in PROFILE_V1.fields]


def test_parse_rejects_non_record():
    with pytest.raises(SchemaError):
        RecordSchema.parse({"type": "enum", "name": "X"})


def test_unknown_primitive_rejected():
    with pytest.raises(SchemaError):
        RecordSchema("Bad", [Field("x", "decimal")])


def test_duplicate_field_rejected():
    with pytest.raises(SchemaError):
        RecordSchema("Bad", [Field("x", "int"), Field("x", "int")])


def test_map_and_nested_types_roundtrip():
    schema = RecordSchema("Counts", [
        Field("by_page", {"map": "long"}),
        Field("tags", {"array": ["null", "string"]}),
    ])
    record = {"by_page": {"feed": 10, "jobs": 2}, "tags": ["a", None]}
    assert decode_record(schema, encode_record(schema, record)) == record


# -- schema evolution --------------------------------------------------------

def test_added_field_with_default_is_compatible():
    v2 = RecordSchema("Profile", PROFILE_V1.fields + [
        Field("industry", "string", default="unknown", has_default=True)])
    check_compatible(PROFILE_V1, v2)
    data = encode_record(PROFILE_V1, {"member_id": 1, "name": "a"})
    decoded = decode_with_resolution(PROFILE_V1, v2, data)
    assert decoded["industry"] == "unknown"


def test_added_field_without_default_is_incompatible():
    v2 = RecordSchema("Profile", PROFILE_V1.fields + [Field("industry", "string")])
    with pytest.raises(SchemaCompatibilityError):
        check_compatible(PROFILE_V1, v2)


def test_removed_field_is_skipped_on_read():
    v2 = RecordSchema("Profile", [f for f in PROFILE_V1.fields if f.name != "headline"])
    data = encode_record(PROFILE_V1,
                         {"member_id": 1, "name": "a", "headline": "boss"})
    decoded = decode_with_resolution(PROFILE_V1, v2, data)
    assert "headline" not in decoded


def test_numeric_promotion_int_to_double():
    v1 = RecordSchema("Score", [Field("value", "int")])
    v2 = RecordSchema("Score", [Field("value", "double")])
    data = encode_record(v1, {"value": 42})
    assert decode_with_resolution(v1, v2, data) == {"value": 42.0}


def test_narrowing_promotion_rejected():
    v1 = RecordSchema("Score", [Field("value", "double")])
    v2 = RecordSchema("Score", [Field("value", "int")])
    with pytest.raises(SchemaCompatibilityError):
        check_compatible(v1, v2)


def test_field_made_nullable_is_compatible():
    v1 = RecordSchema("Doc", [Field("body", "string")])
    v2 = RecordSchema("Doc", [Field("body", ["null", "string"])])
    data = encode_record(v1, {"body": "hello"})
    assert decode_with_resolution(v1, v2, data) == {"body": "hello"}


def test_registry_assigns_monotonic_versions():
    registry = SchemaRegistry()
    v1 = registry.register(PROFILE_V1)
    v2 = registry.register(RecordSchema("Profile", PROFILE_V1.fields + [
        Field("industry", "string", default="", has_default=True)]))
    assert (v1, v2) == (1, 2)
    assert registry.latest("Profile").version == 2
    assert registry.get("Profile", 1).version == 1


def test_registry_rejects_incompatible_evolution():
    registry = SchemaRegistry()
    registry.register(PROFILE_V1)
    bad = RecordSchema("Profile", [Field("member_id", "string"), Field("name", "string")])
    with pytest.raises(SchemaCompatibilityError):
        registry.register(bad)


# -- property-based roundtrips -----------------------------------------------

_field_values = st.fixed_dictionaries({
    "member_id": st.integers(min_value=-(2 ** 62), max_value=2 ** 62),
    "name": st.text(max_size=50),
    "headline": st.one_of(st.none(), st.text(max_size=20)),
    "skills": st.lists(st.text(max_size=10), max_size=5),
})


@given(_field_values)
def test_roundtrip_property(record):
    assert decode_record(PROFILE_V1, encode_record(PROFILE_V1, record)) == record


@given(st.integers(min_value=-(2 ** 62), max_value=2 ** 62))
def test_varint_roundtrip(value):
    buf = io.BytesIO()
    oracle.write_varint(buf, value)
    buf.seek(0)
    assert oracle.read_varint(buf) == value


# -- the compiled codec against the interpreting oracle ----------------------

_LEAVES = ["null", "boolean", "int", "long", "float", "double", "bytes",
           "string"]
_LONGS = st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1)


def _types():
    return st.recursive(
        st.sampled_from(_LEAVES),
        lambda inner: st.one_of(
            inner.map(lambda t: ["null", t]),
            inner.map(lambda t: {"array": t}),
            inner.map(lambda t: {"map": t})),
        max_leaves=4)


def _values(ftype):
    """Values of ``ftype`` that survive a round trip unchanged."""
    if isinstance(ftype, list):
        return st.none() | _values(ftype[1])
    if isinstance(ftype, dict) and "array" in ftype:
        return st.lists(_values(ftype["array"]), max_size=3)
    if isinstance(ftype, dict):
        return st.dictionaries(st.text(max_size=6), _values(ftype["map"]),
                               max_size=3)
    return {
        "null": st.none(),
        "boolean": st.booleans(),
        "int": _LONGS,
        "long": _LONGS,
        "float": st.floats(width=32, allow_nan=False),
        "double": st.floats(allow_nan=False),
        "bytes": st.binary(max_size=12),
        "string": st.text(max_size=12),
    }[ftype]


@st.composite
def _schema_and_record(draw):
    """A random schema, some of whose fields carry defaults, and a
    record that omits some of the fields it may omit."""
    fields, record = [], {}
    for i in range(draw(st.integers(min_value=0, max_value=5))):
        ftype = draw(_types())
        has_default = draw(st.booleans())
        default = draw(_values(ftype)) if has_default else None
        fields.append(Field(f"f{i}", ftype, default=default,
                            has_default=has_default))
        optional = has_default or isinstance(ftype, list)
        if not optional or draw(st.booleans()):
            record[f"f{i}"] = draw(_values(ftype))
    return RecordSchema("Random", fields), record


@settings(max_examples=80, deadline=None)
@given(_schema_and_record())
def test_compiled_codec_matches_the_interpreter(case):
    schema, record = case
    data = encode_record(schema, record)
    assert data == oracle.encode_record(schema, record)
    assert decode_record(schema, data) == oracle.decode_record(schema, data)


def _promoted(draw, ftype):
    """A reader type that ``ftype``'s data resolves into."""
    if isinstance(ftype, list):
        return ["null", _promoted(draw, ftype[1])]
    if isinstance(ftype, dict):
        kind = "array" if "array" in ftype else "map"
        promoted = {kind: _promoted(draw, ftype[kind])}
    elif ftype in ("int", "long", "float"):
        promoted = draw(st.sampled_from(
            {"int": ["int", "long", "float", "double"],
             "long": ["long", "float", "double"],
             "float": ["float", "double"]}[ftype]))
    else:
        promoted = ftype
    return ["null", promoted] if draw(st.booleans()) else promoted


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_compiled_resolution_matches_the_interpreter(data):
    writer, record = data.draw(_schema_and_record())
    reader_fields = []
    for field in writer.fields:
        if data.draw(st.booleans()):           # promoted (maybe nullable)
            reader_fields.append(Field(
                field.name, _promoted(data.draw, field.type)))
        elif data.draw(st.booleans()):         # kept as it was
            reader_fields.append(field)
    for i in range(data.draw(st.integers(min_value=0, max_value=2))):
        ftype = data.draw(_types())            # added, with a default
        reader_fields.append(Field(f"new{i}", ftype, has_default=True,
                                   default=data.draw(_values(ftype))))
    reader = RecordSchema("Random", data.draw(st.permutations(reader_fields)),
                          version=2)
    payload = encode_record(writer, record)
    expected = oracle.decode_with_resolution(writer, reader, payload)
    assert decode_with_resolution(writer, reader, payload) == expected
    # the second call takes the cached resolver
    assert decode_with_resolution(writer, reader, payload) == expected


def test_resolution_checks_compatibility_once_per_pair(monkeypatch):
    import repro.common.serialization as serialization
    checks = []
    original = serialization.check_compatible
    monkeypatch.setattr(serialization, "check_compatible",
                        lambda w, r: checks.append((w, r)) or original(w, r))
    v2 = RecordSchema("Profile", PROFILE_V1.fields + [
        Field("industry", "string", default="", has_default=True)])
    data = encode_record(PROFILE_V1, {"member_id": 1, "name": "a"})
    for _ in range(3):
        assert decode_with_resolution(PROFILE_V1, v2, data)["industry"] == ""
    assert checks == [(PROFILE_V1, v2)]


def test_incompatible_resolution_keeps_raising():
    v1 = RecordSchema("Score", [Field("value", "double")])
    v2 = RecordSchema("Score", [Field("value", "int")])
    data = encode_record(v1, {"value": 1.5})
    for _ in range(2):
        with pytest.raises(SchemaCompatibilityError):
            decode_with_resolution(v1, v2, data)


# -- longs outside 64 bits and truncated input --------------------------------

@pytest.mark.parametrize("ftype", ["long", "int", "any"])
@pytest.mark.parametrize("value", [2 ** 63, 2 ** 64 + 5, -(2 ** 63) - 1])
def test_long_outside_64_bits_is_rejected(ftype, value):
    schema = RecordSchema("Wide", [Field("n", ftype)])
    with pytest.raises(SerializationError, match="outside 64 bits"):
        encode_record(schema, {"n": value})


@pytest.mark.parametrize("ftype", ["long", "any"])
@pytest.mark.parametrize("value", [2 ** 63 - 1, -(2 ** 63)])
def test_long_at_the_64_bit_edges_roundtrips(ftype, value):
    schema = RecordSchema("Wide", [Field("n", ftype)])
    assert decode_record(schema, encode_record(schema, {"n": value})) == {
        "n": value}


_TRUNCATABLE = [
    ("boolean", True),
    ("int", -300),
    ("long", 2 ** 40),
    ("float", 1.5),
    ("double", 2.25),
    ("bytes", b"abc"),
    ("string", "héllo"),
    (["null", "string"], "x"),
    ({"array": "long"}, [1, 200]),
    ({"map": "double"}, {"a": 1.0}),
    ("any", {"k": [1, 2.5, "s", None, True]}),
]


@pytest.mark.parametrize("ftype,value", _TRUNCATABLE,
                         ids=[str(t) for t, _ in _TRUNCATABLE])
def test_every_truncation_raises_serialization_error(ftype, value):
    schema = RecordSchema("Leaf", [Field("x", ftype)])
    data = encode_record(schema, {"x": value})
    for cut in range(len(data)):
        with pytest.raises(SerializationError):
            decode_record(schema, data[:cut])
        with pytest.raises(SerializationError):
            decode_with_resolution(schema, schema, data[:cut])


# -- the tagged ``any`` leaf ----------------------------------------------------

ANY = RecordSchema("Box", [Field("v", "any")])

_json_values = st.recursive(
    st.none() | st.booleans() | _LONGS | st.floats(allow_nan=False)
    | st.text(max_size=8),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=16)


def _reinserted(value):
    """``value`` with every dict's keys inserted in reverse order."""
    if isinstance(value, dict):
        return {key: _reinserted(value[key]) for key in reversed(list(value))}
    if isinstance(value, (list, tuple)):
        return [_reinserted(item) for item in value]
    return value


@settings(max_examples=150, deadline=None)
@given(_json_values)
def test_any_roundtrips_as_json_does(value):
    data = encode_record(ANY, {"v": value})
    assert decode_record(ANY, data)["v"] == json.loads(json.dumps(value))
    assert encode_record(ANY, {"v": _reinserted(value)}) == data


def test_any_keeps_bool_apart_from_int_and_float():
    decoded = decode_record(ANY, encode_record(ANY, {"v": [True, 1, 1.0]}))
    assert [type(item) for item in decoded["v"]] == [bool, int, float]
    inf = decode_record(ANY, encode_record(ANY, {"v": -math.inf}))["v"]
    assert inf == -math.inf


@pytest.mark.parametrize("value", [{1: "a"}, {"a": {2: "b"}}, {"b": 1, 2: 3},
                                   b"raw", {1, 2}, object()],
                         ids=["int-key", "nested-int-key", "mixed-keys",
                              "bytes", "set", "object"])
def test_any_rejects_what_json_would_not_round_trip(value):
    with pytest.raises(SerializationError):
        encode_record(ANY, {"v": value})
