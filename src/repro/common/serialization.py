"""Avro-style schemas and binary serialization.

Databus serializes change events with Avro because it is "an open
format" that "allows serialization in the relay without generation of
source-schema specific code" (§III.C); Espresso document schemas "are
represented in JSON in the format specified by Avro" and are "freely
evolvable" under Avro's schema-resolution rules (§IV.A).

This module implements the subset of Avro needed by both systems:

* record schemas declared as JSON-like dicts with primitive, nullable
  (union-with-null), array and map field types;
* a compact binary encoding (zig-zag varints, length-prefixed bytes);
* writer->reader schema resolution: added fields take defaults, removed
  fields are skipped, and numeric promotions (int->long->float->double)
  are applied — mirroring the rules Espresso relies on for promotion of
  stored documents to new schema versions.

**Compiled codecs.**  No schema is interpreted per call.  The first
:func:`encode_record` or :func:`decode_record` against a schema
generates one straight-line Python function for it (fields unrolled,
varints inlined, one ``bytearray`` or ``bytes`` walked by index) and
caches it on the schema; :func:`decode_with_resolution` does the same
once per (writer, reader) pair, running :func:`check_compatible` only
then.  Schemas are therefore immutable once used.  Field names and
defaults reach the generated code as bound constants, never as source
text.

**The ``any`` leaf type — a departure from Avro.**  For values that are
not fixed records (stream payloads, stream task state) a field may be
declared ``"any"``: one tag byte per value — null, false, true, long,
double, string, list, map — then the value's Avro encoding (a list or
map is a count, then its items).  Map keys must be ``str`` and are
written in sorted order, so equal values encode to equal bytes whatever
a dict's insertion order.  ``bool`` stays distinct from ``int``, and
tuples decode as lists, so a value round-trips exactly as
``json.loads(json.dumps(value))`` would.  Anything else — another
type, a non-``str`` key, a long outside 64 bits — raises
:class:`SerializationError`.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from typing import Any

from repro.common.errors import (
    SchemaCompatibilityError,
    SchemaError,
    SerializationError,
)

_PRIMITIVES = {"null", "boolean", "int", "long", "float", "double", "bytes",
               "string", "any"}
_NUMERIC_PROMOTIONS = {
    "int": {"int", "long", "float", "double"},
    "long": {"long", "float", "double"},
    "float": {"float", "double"},
    "double": {"double"},
}


@dataclass(frozen=True)
class Field:
    """One field of a record schema."""

    name: str
    type: object  # primitive name, {"array": t}, {"map": t}, or ["null", t]
    default: object = None
    has_default: bool = False
    indexed: bool = False       # Espresso index constraint (§IV.A)
    free_text: bool = False     # free-text index constraint


class RecordSchema:
    """A named record schema with ordered fields."""

    def __init__(self, name: str, fields: list[Field], version: int = 1):
        if not name:
            raise SchemaError("record schema needs a name")
        seen: set[str] = set()
        for field in fields:
            if field.name in seen:
                raise SchemaError(f"duplicate field {field.name!r} in schema {name!r}")
            seen.add(field.name)
            _validate_type(field.type, name, field.name)
        self.name = name
        self.fields = list(fields)
        self.version = version
        self._by_name = {f.name: f for f in self.fields}
        # compiled on first use (see the module docstring)
        self._encoder = None
        self._decoder = None
        self._resolvers: dict[RecordSchema, object] = {}

    @classmethod
    def parse(cls, document: str | dict) -> "RecordSchema":
        """Parse an Avro-style JSON record declaration."""
        spec = json.loads(document) if isinstance(document, str) else document
        if spec.get("type") != "record":
            raise SchemaError(f"expected a record schema, got {spec.get('type')!r}")
        fields = []
        for fspec in spec.get("fields", []):
            has_default = "default" in fspec
            fields.append(Field(
                name=fspec["name"],
                type=fspec["type"],
                default=fspec.get("default"),
                has_default=has_default,
                indexed=bool(fspec.get("indexed", False)),
                free_text=bool(fspec.get("free_text", False)),
            ))
        return cls(spec["name"], fields, version=int(spec.get("version", 1)))

    def to_json(self) -> dict:
        fields = []
        for field in self.fields:
            fspec: dict = {"name": field.name, "type": field.type}
            if field.has_default:
                fspec["default"] = field.default
            if field.indexed:
                fspec["indexed"] = True
            if field.free_text:
                fspec["free_text"] = True
            fields.append(fspec)
        return {"type": "record", "name": self.name,
                "version": self.version, "fields": fields}

    def field(self, name: str) -> Field:
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(f"schema {self.name!r} has no field {name!r}") from None

    @property
    def indexed_fields(self) -> list[Field]:
        return [f for f in self.fields if f.indexed or f.free_text]

    def __repr__(self) -> str:
        return f"RecordSchema({self.name!r}, v{self.version}, {len(self.fields)} fields)"


def _validate_type(ftype: object, schema: str, field: str) -> None:
    if isinstance(ftype, str):
        if ftype not in _PRIMITIVES:
            raise SchemaError(f"{schema}.{field}: unknown type {ftype!r}")
        return
    if isinstance(ftype, list):  # union: only ["null", X] supported
        if len(ftype) != 2 or ftype[0] != "null":
            raise SchemaError(f"{schema}.{field}: only ['null', T] unions are supported")
        _validate_type(ftype[1], schema, field)
        return
    if isinstance(ftype, dict):
        if "array" in ftype:
            _validate_type(ftype["array"], schema, field)
            return
        if "map" in ftype:
            _validate_type(ftype["map"], schema, field)
            return
    raise SchemaError(f"{schema}.{field}: unsupported type declaration {ftype!r}")


# ---------------------------------------------------------------------------
# binary encoding: the leaves every compiled codec calls
# ---------------------------------------------------------------------------

_LONG_MIN = -(1 << 63)
_LONG_MAX = (1 << 63) - 1
_FLOAT = struct.Struct("<f")
_DOUBLE = struct.Struct("<d")


def _write_long(out: bytearray, value: int) -> None:
    """Append ``value`` as a zig-zag varint; it must fit in 64 bits."""
    if not _LONG_MIN <= value <= _LONG_MAX:
        raise SerializationError(f"long {value} is outside 64 bits")
    value = (value << 1) ^ (value >> 63)
    while value > 0x7F:
        out.append(value & 0x7F | 0x80)
        value >>= 7
    out.append(value)


def _read_long(data: bytes, pos: int) -> tuple[int, int]:
    """The zig-zag varint at ``pos``, and the position after it."""
    accum = shift = 0
    while True:
        try:
            byte = data[pos]
        except IndexError:
            raise SerializationError("truncated varint") from None
        pos += 1
        accum |= (byte & 0x7F) << shift
        if byte < 0x80:
            return (accum >> 1) ^ -(accum & 1), pos
        shift += 7
        if shift > 70:
            raise SerializationError("varint too long")


# tag bytes of the ``any`` encoding
(_ANY_NULL, _ANY_FALSE, _ANY_TRUE, _ANY_LONG, _ANY_DOUBLE, _ANY_STRING,
 _ANY_LIST, _ANY_MAP) = range(8)


def _encode_any(out: bytearray, value: Any) -> None:
    # one-byte string sizes and longs (below 64, in [-64, 64)) are inlined
    kind = type(value)
    if kind is str:
        data = value.encode()
        out.append(_ANY_STRING)
        if len(data) < 0x40:
            out.append(len(data) << 1)
        else:
            _write_long(out, len(data))
        out += data
    elif kind is int:
        out.append(_ANY_LONG)
        if -0x40 <= value < 0x40:
            out.append((value << 1) ^ (value >> 63))
        else:
            _write_long(out, value)
    elif kind is dict:
        out.append(_ANY_MAP)
        _write_long(out, len(value))
        for key in sorted(value):
            if type(key) is not str:
                raise SerializationError(f"map key {key!r} is not a str")
            data = key.encode()
            if len(data) < 0x40:
                out.append(len(data) << 1)
            else:
                _write_long(out, len(data))
            out += data
            _encode_any(out, value[key])
    elif kind is list or kind is tuple:
        out.append(_ANY_LIST)
        _write_long(out, len(value))
        for item in value:
            _encode_any(out, item)
    elif kind is float:
        out.append(_ANY_DOUBLE)
        out += _DOUBLE.pack(value)
    elif value is None:
        out.append(_ANY_NULL)
    elif kind is bool:
        out.append(_ANY_TRUE if value else _ANY_FALSE)
    else:
        raise SerializationError(f"cannot encode {kind.__name__} as any")


def _read_str(data: bytes, pos: int) -> tuple[str, int]:
    length = data[pos]
    if length < 0x80:
        pos += 1
        length = (length >> 1) ^ -(length & 1)
    else:
        length, pos = _read_long(data, pos)
    end = pos + length
    if length < 0 or end > len(data):
        raise SerializationError("truncated string")
    return data[pos:end].decode(), end


def _decode_any(data: bytes, pos: int) -> tuple[object, int]:
    tag = data[pos]
    pos += 1
    if tag == _ANY_STRING:
        return _read_str(data, pos)
    if tag == _ANY_LONG:
        value = data[pos]
        if value < 0x80:
            return (value >> 1) ^ -(value & 1), pos + 1
        return _read_long(data, pos)
    if tag == _ANY_MAP:
        count, pos = _read_long(data, pos)
        mapping: dict[str, object] = {}
        for _ in range(count):
            key, pos = _read_str(data, pos)
            mapping[key], pos = _decode_any(data, pos)
        return mapping, pos
    if tag == _ANY_LIST:
        count, pos = _read_long(data, pos)
        items = []
        for _ in range(count):
            item, pos = _decode_any(data, pos)
            items.append(item)
        return items, pos
    if tag == _ANY_DOUBLE:
        return _DOUBLE.unpack_from(data, pos)[0], pos + 8
    if tag == _ANY_NULL:
        return None, pos
    if tag == _ANY_TRUE:
        return True, pos
    if tag == _ANY_FALSE:
        return False, pos
    raise SerializationError(f"invalid any tag {tag}")


# ---------------------------------------------------------------------------
# the compiler: one generated function per schema (or schema pair)
# ---------------------------------------------------------------------------

#: what generated code may name besides its own bound constants
_RUNTIME = {
    "SerializationError": SerializationError,
    "write_long": _write_long,
    "read_long": _read_long,
    "encode_any": _encode_any,
    "decode_any": _decode_any,
    "pack_float": _FLOAT.pack,
    "pack_double": _DOUBLE.pack,
    "unpack_float": _FLOAT.unpack_from,
    "unpack_double": _DOUBLE.unpack_from,
    "struct_error": struct.error,
}


class _Source:
    """The lines of one generated function and the constants it binds."""

    def __init__(self):
        self.lines: list[str] = []
        self.namespace = dict(_RUNTIME)
        self._counter = 0

    def emit(self, depth: int, text: str) -> None:
        self.lines.append("    " * depth + text)

    def fresh(self, prefix: str) -> str:
        self._counter += 1
        return f"{prefix}{self._counter}"

    def bind(self, value: object) -> str:
        """A name under which the generated code sees ``value``."""
        name = self.fresh("K")
        self.namespace[name] = value
        return name

    def build(self, label: str):
        code = compile("\n".join(self.lines), f"<{label}>", "exec")
        exec(code, self.namespace)
        return self.namespace["codec"]


def _emit_encode(src: _Source, ftype: object, var: str, depth: int) -> None:
    """Append ``var``'s encoding under ``ftype`` to ``out``.

    Coercions match the reference interpreter the tests keep:
    ``int()``, ``float()``, ``str()`` and ``bytes()`` of the value.
    """
    emit = src.emit
    if isinstance(ftype, list):
        emit(depth, f"if {var} is None:")
        emit(depth + 1, "out.append(0)")
        emit(depth, "else:")
        emit(depth + 1, "out.append(2)")
        _emit_encode(src, ftype[1], var, depth + 1)
    elif isinstance(ftype, dict) and "array" in ftype:
        item = src.fresh("item")
        emit(depth, f"if not isinstance({var}, (list, tuple)):")
        emit(depth + 1, "raise SerializationError("
                        f"f'expected list, got {{type({var}).__name__}}')")
        emit(depth, f"write_long(out, len({var}))")
        emit(depth, f"for {item} in {var}:")
        _emit_encode(src, ftype["array"], item, depth + 1)
    elif isinstance(ftype, dict):
        key, item = src.fresh("key"), src.fresh("item")
        emit(depth, f"if not isinstance({var}, dict):")
        emit(depth + 1, "raise SerializationError("
                        f"f'expected dict, got {{type({var}).__name__}}')")
        emit(depth, f"write_long(out, len({var}))")
        emit(depth, f"for {key}, {item} in {var}.items():")
        _emit_encode(src, "string", key, depth + 1)
        _emit_encode(src, ftype["map"], item, depth + 1)
    elif ftype == "null":
        emit(depth, f"if {var} is not None:")
        emit(depth + 1,
             f"raise SerializationError(f'null field got {{{var}!r}}')")
    elif ftype == "boolean":
        emit(depth, f"out.append(1 if {var} else 0)")
    elif ftype in ("int", "long"):
        number = src.fresh("number")
        emit(depth, f"{number} = int({var})")
        emit(depth, f"if -0x40 <= {number} < 0x40:")
        emit(depth + 1, f"out.append(({number} << 1) ^ ({number} >> 63))")
        emit(depth, "else:")
        emit(depth + 1, f"write_long(out, {number})")
    elif ftype == "float":
        emit(depth, f"out += pack_float(float({var}))")
    elif ftype == "double":
        emit(depth, f"out += pack_double(float({var}))")
    elif ftype == "any":
        emit(depth, f"encode_any(out, {var})")
    else:
        data = src.fresh("data")
        convert = "bytes" if ftype == "bytes" else "str"
        encode = "" if ftype == "bytes" else ".encode()"
        emit(depth, f"{data} = {convert}({var}){encode}")
        emit(depth, f"if len({data}) < 0x40:")
        emit(depth + 1, f"out.append(len({data}) << 1)")
        emit(depth, "else:")
        emit(depth + 1, f"write_long(out, len({data}))")
        emit(depth, f"out += {data}")


def _emit_long(src: _Source, var: str, depth: int) -> None:
    """Read a varint into ``var``; one-byte values stay inline."""
    emit = src.emit
    emit(depth, f"{var} = data[pos]")
    emit(depth, f"if {var} < 0x80:")
    emit(depth + 1, "pos += 1")
    emit(depth + 1, f"{var} = ({var} >> 1) ^ -({var} & 1)")
    emit(depth, "else:")
    emit(depth + 1, f"{var}, pos = read_long(data, pos)")


def _emit_decode(src: _Source, ftype: object, var: str, depth: int) -> None:
    """Decode the value at ``pos`` under ``ftype`` into ``var``."""
    emit = src.emit
    if isinstance(ftype, list):
        # the branch index is the varint 0 or 1: one byte, 0x00 or 0x02
        branch = src.fresh("branch")
        emit(depth, f"{branch} = data[pos]")
        emit(depth, "pos += 1")
        emit(depth, f"if {branch} == 2:")
        _emit_decode(src, ftype[1], var, depth + 1)
        emit(depth, f"elif {branch} == 0:")
        emit(depth + 1, f"{var} = None")
        emit(depth, "else:")
        emit(depth + 1, "raise SerializationError("
                        f"f'invalid union branch byte {{{branch}}}')")
    elif isinstance(ftype, dict):
        count, item = src.fresh("count"), src.fresh("item")
        _emit_long(src, count, depth)
        is_array = "array" in ftype
        emit(depth, f"{var} = {'[]' if is_array else '{}'}")
        emit(depth, f"for _ in range({count}):")
        if is_array:
            _emit_decode(src, ftype["array"], item, depth + 1)
            emit(depth + 1, f"{var}.append({item})")
        else:
            key = src.fresh("key")
            _emit_decode(src, "string", key, depth + 1)
            _emit_decode(src, ftype["map"], item, depth + 1)
            emit(depth + 1, f"{var}[{key}] = {item}")
    elif ftype == "null":
        emit(depth, f"{var} = None")
    elif ftype == "boolean":
        emit(depth, f"{var} = data[pos] != 0")
        emit(depth, "pos += 1")
    elif ftype in ("int", "long"):
        _emit_long(src, var, depth)
    elif ftype in ("float", "double"):
        emit(depth, f"{var}, = unpack_{ftype}(data, pos)")
        emit(depth, f"pos += {4 if ftype == 'float' else 8}")
    elif ftype == "any":
        emit(depth, f"{var}, pos = decode_any(data, pos)")
    else:
        length = src.fresh("length")
        _emit_long(src, length, depth)
        emit(depth, f"end = pos + {length}")
        emit(depth, f"if {length} < 0 or end > size:")
        emit(depth + 1, f"raise SerializationError('truncated {ftype}')")
        emit(depth, f"{var} = data[pos:end]"
                    + (".decode()" if ftype == "string" else ""))
        emit(depth, "pos = end")


def _compile_encoder(schema: RecordSchema):
    src = _Source()
    paths = src.bind([f"{schema.name}.{f.name}" for f in schema.fields])
    emit = src.emit
    emit(0, "def codec(record):")
    for index, field in enumerate(schema.fields):
        name = src.bind(field.name)
        emit(1, f"if {name} in record:")
        emit(2, f"v{index} = record[{name}]")
        emit(1, "else:")
        if field.has_default:
            emit(2, f"v{index} = {src.bind(field.default)}")
        elif isinstance(field.type, list):
            emit(2, f"v{index} = None")
        else:
            emit(2, "raise SerializationError("
                    f"'record missing required field ' + {paths}[{index}])")
    emit(1, "out = bytearray()")
    emit(1, "at = 0")
    emit(1, "try:")
    if not schema.fields:
        emit(2, "pass")
    for index, field in enumerate(schema.fields):
        emit(2, f"at = {index}")
        _emit_encode(src, field.type, f"v{index}", 2)
    emit(1, "except (SerializationError, TypeError, ValueError, "
            "OverflowError, struct_error) as exc:")
    emit(2, f"raise SerializationError(f'{{{paths}[at]}}: {{exc}}') "
            "from exc")
    emit(1, "return bytes(out)")
    return src.build(f"encode {schema.name} v{schema.version}")


def _emit_decode_fields(src: _Source, schema: RecordSchema) -> None:
    """The shared prologue of a decoder: each writer field into ``v<i>``."""
    emit = src.emit
    emit(0, "def codec(data):")
    emit(1, "if type(data) is not bytes:")
    emit(2, "data = bytes(data)")
    emit(1, "size = len(data)")
    emit(1, "pos = 0")
    emit(1, "try:")
    if not schema.fields:
        emit(2, "pass")
    for index, field in enumerate(schema.fields):
        _emit_decode(src, field.type, f"v{index}", 2)
    emit(1, "except (IndexError, struct_error):")
    emit(2, "raise SerializationError("
            f"{src.bind(f'truncated {schema.name} record')}) from None")
    emit(1, "except UnicodeDecodeError as exc:")
    emit(2, "raise SerializationError(str(exc)) from exc")


def _return_dict(src: _Source, pairs: list[tuple[str, str]]) -> None:
    items = ", ".join(f"{src.bind(name)}: {expr}" for name, expr in pairs)
    src.emit(1, f"return {{{items}}}")


def _compile_decoder(schema: RecordSchema):
    src = _Source()
    _emit_decode_fields(src, schema)
    _return_dict(src, [(f.name, f"v{i}") for i, f in enumerate(schema.fields)])
    return src.build(f"decode {schema.name} v{schema.version}")


def encode_record(schema: RecordSchema, record: dict) -> bytes:
    """Serialize ``record`` (a plain dict) against ``schema``."""
    encoder = schema._encoder
    if encoder is None:
        encoder = schema._encoder = _compile_encoder(schema)
    return encoder(record)


def decode_record(schema: RecordSchema, data: bytes) -> dict:
    """Deserialize bytes written with the same schema."""
    decoder = schema._decoder
    if decoder is None:
        decoder = schema._decoder = _compile_decoder(schema)
    return decoder(data)


# ---------------------------------------------------------------------------
# schema resolution (reader vs writer)
# ---------------------------------------------------------------------------

def _types_resolvable(writer: object, reader: object) -> bool:
    if isinstance(writer, str) and isinstance(reader, str):
        if writer == reader:
            return True
        return reader in _NUMERIC_PROMOTIONS.get(writer, set())
    if isinstance(writer, list) and isinstance(reader, list):
        return _types_resolvable(writer[1], reader[1])
    if isinstance(writer, dict) and isinstance(reader, dict):
        if "array" in writer and "array" in reader:
            return _types_resolvable(writer["array"], reader["array"])
        if "map" in writer and "map" in reader:
            return _types_resolvable(writer["map"], reader["map"])
    # promotion of a concrete type into a nullable union of a compatible type
    if isinstance(reader, list) and not isinstance(writer, list):
        return _types_resolvable(writer, reader[1])
    return False


def check_compatible(writer: RecordSchema, reader: RecordSchema) -> None:
    """Raise unless data written with ``writer`` is readable with ``reader``.

    This is the check Espresso applies when a new document-schema
    version is posted: "new document schemas must be compatible
    according to the Avro schema resolution rules" (§IV.A).
    """
    for rfield in reader.fields:
        try:
            wfield = writer.field(rfield.name)
        except SchemaError:
            if not rfield.has_default and not isinstance(rfield.type, list):
                raise SchemaCompatibilityError(
                    f"reader field {reader.name}.{rfield.name} is new but has no default")
            continue
        if not _types_resolvable(wfield.type, rfield.type):
            raise SchemaCompatibilityError(
                f"field {reader.name}.{rfield.name}: cannot promote "
                f"{wfield.type!r} to {rfield.type!r}")


def _promoter(writer_type: object, reader_type: object):
    """The function promoting a decoded writer value to the reader's
    type, or ``None`` where the value is already the reader's."""
    if isinstance(reader_type, list) and not isinstance(writer_type, list):
        return _promoter(writer_type, reader_type[1])
    if isinstance(writer_type, str) and isinstance(reader_type, str):
        if writer_type in ("int", "long") and reader_type in ("float", "double"):
            return float
        return None
    if isinstance(writer_type, list) and isinstance(reader_type, list):
        inner = _promoter(writer_type[1], reader_type[1])
        if inner is None:
            return None
        return lambda value: None if value is None else inner(value)
    if isinstance(writer_type, dict) and isinstance(reader_type, dict):
        kind = "array" if "array" in writer_type else "map"
        inner = _promoter(writer_type[kind], reader_type[kind])
        if inner is None:
            return None
        if kind == "array":
            return lambda value: [inner(item) for item in value]
        return lambda value: {key: inner(item) for key, item in value.items()}
    return None


def _compile_resolver(writer: RecordSchema, reader: RecordSchema):
    src = _Source()
    _emit_decode_fields(src, writer)
    position = {f.name: i for i, f in enumerate(writer.fields)}
    pairs = []
    for rfield in reader.fields:
        index = position.get(rfield.name)
        if index is None:
            default = rfield.default if rfield.has_default else None
            pairs.append((rfield.name, src.bind(default)))
            continue
        promote = _promoter(writer.fields[index].type, rfield.type)
        expr = f"v{index}"
        if promote is not None:
            expr = f"{src.bind(promote)}({expr})"
        pairs.append((rfield.name, expr))
    _return_dict(src, pairs)
    return src.build(f"resolve {writer.name} v{writer.version} "
                     f"as v{reader.version}")


def decode_with_resolution(writer: RecordSchema, reader: RecordSchema,
                           data: bytes) -> dict:
    """Decode bytes written under ``writer`` into ``reader``'s shape.

    Fields the reader dropped are skipped; fields the reader added are
    filled from defaults; numeric promotions are applied.
    """
    resolver = writer._resolvers.get(reader)
    if resolver is None:
        check_compatible(writer, reader)
        resolver = writer._resolvers[reader] = _compile_resolver(writer, reader)
    return resolver(data)


class SchemaRegistry:
    """Versioned schema storage, keyed by (name, version).

    Espresso stores "the schema version needed to deserialize the stored
    document" next to each row (§IV.A / Table IV.1); Databus relays
    stamp events with the schema version of their payload.
    """

    def __init__(self):
        self._schemas: dict[tuple[str, int], RecordSchema] = {}
        self._latest: dict[str, int] = {}

    def register(self, schema: RecordSchema) -> int:
        """Register a schema; new versions must be backward compatible."""
        latest = self.latest(schema.name)
        if latest is not None:
            check_compatible(latest, schema)
            version = latest.version + 1
        else:
            version = 1
        registered = RecordSchema(schema.name, schema.fields, version=version)
        self._schemas[(schema.name, version)] = registered
        self._latest[schema.name] = version
        return version

    def register_exact(self, schema: RecordSchema) -> None:
        """Store a schema under its declared version (replication path:
        a downstream registry mirroring an upstream one verbatim)."""
        key = (schema.name, schema.version)
        if key in self._schemas:
            return
        self._schemas[key] = schema
        if schema.version > self._latest.get(schema.name, 0):
            self._latest[schema.name] = schema.version

    def get(self, name: str, version: int) -> RecordSchema:
        try:
            return self._schemas[(name, version)]
        except KeyError:
            raise SchemaError(f"no schema {name!r} version {version}") from None

    def latest(self, name: str) -> RecordSchema | None:
        version = self._latest.get(name)
        return self._schemas[(name, version)] if version else None

    def names(self) -> list[str]:
        return sorted(self._latest)
