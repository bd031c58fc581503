"""JSON wire formats for spaces, sections, metrics, and adelic data.

All numbers travel as exact rational strings ("num/den" or "num"); every
schema rejects unknown keys so malformed configs fail loudly with a
JSON-pointer path.
"""

from __future__ import annotations

import re
from fractions import Fraction
from numbers import Number
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .fields import Magnitude, ValuedField, _constant_value
from .sections import Section, Subvariety
from .spaces import NormedSpace, PreconditionError

RATIONAL = {"type": "string", "pattern": r"^-?[0-9]+(/[1-9][0-9]*)?$"}

MAGNITUDE_SCHEMA = {
    "type": "object",
    # |n| is bounded so that rho^n stays printable and fast to form
    "properties": {"q": RATIONAL,
                   "n": {"type": "integer", "minimum": -4096, "maximum": 4096}},
    "required": ["q", "n"],
    "additionalProperties": False,
}

FIELD_SCHEMA = {
    "type": "object",
    "properties": {
        "type": {"enum": ["padic", "trivial", "laurent"]},
        "p": {"type": "integer", "minimum": 2},
        "base_prime": {"type": "integer", "minimum": 2},
    },
    "required": ["type"],
    "additionalProperties": False,
    "allOf": [
        {"if": {"properties": {"type": {"const": "padic"}}},
         "then": {"required": ["p"]}},
        {"if": {"properties": {"type": {"const": "laurent"}}},
         "then": {"required": ["base_prime"]}},
    ],
}

MATRIX_SCHEMA = {
    "type": "array",
    "items": {"type": "array", "items": RATIONAL, "minItems": 1},
    "minItems": 1,
}

VECTOR_SCHEMA = {"type": "array", "items": RATIONAL, "minItems": 1}

NORM_SCHEMA = {
    "type": "object",
    "properties": {
        "field": FIELD_SCHEMA,
        "basis": MATRIX_SCHEMA,
        "weights": {"type": "array", "items": MAGNITUDE_SCHEMA},
    },
    "required": ["field", "basis", "weights"],
    "additionalProperties": False,
}

SECTION_SCHEMA = {
    "type": "object",
    "properties": {
        "degree": {"type": "integer", "minimum": 0},
        "variables": {"type": "integer", "minimum": 1},
        "coeffs": {
            "type": "object",
            "patternProperties": {r"^[0-9]+(,[0-9]+)*$": RATIONAL},
            "additionalProperties": False,
        },
    },
    "required": ["degree", "variables", "coeffs"],
    "additionalProperties": False,
}

SUBVARIETY_SCHEMA = {
    "type": "object",
    "properties": {
        "points": {"type": "array", "items": VECTOR_SCHEMA, "minItems": 1},
        "linear": MATRIX_SCHEMA,
    },
    "minProperties": 1,
    "maxProperties": 1,
    "additionalProperties": False,
}

POINTS_SCHEMA = {
    "type": "object",
    "properties": {
        "points": {"type": "array", "items": VECTOR_SCHEMA, "minItems": 1},
    },
    "required": ["points"],
    "additionalProperties": False,
}

ADELIC_SCHEMA = {
    "type": "object",
    "properties": {
        "dim": {"type": "integer", "minimum": 0},
        "places": {
            "type": "object",
            "patternProperties": {r"^[0-9]+$": NORM_SCHEMA},
            "additionalProperties": False,
        },
        "arch_functionals": MATRIX_SCHEMA,
    },
    "required": ["dim", "arch_functionals"],
    "additionalProperties": False,
}

LATTICE_SCHEMA = {
    "type": "object",
    "properties": {"columns": MATRIX_SCHEMA},
    "required": ["columns"],
    "additionalProperties": False,
}

FUNCTIONALS_SCHEMA = {
    "type": "object",
    "properties": {"functionals": MATRIX_SCHEMA},
    "required": ["functionals"],
    "additionalProperties": False,
}

GRADED_SCHEMA = {
    "type": "object",
    "properties": {
        "degrees": {
            "type": "object",
            "patternProperties": {r"^[1-9][0-9]*$": ADELIC_SCHEMA},
            "additionalProperties": False,
            "minProperties": 1,
        },
    },
    "required": ["degrees"],
    "additionalProperties": False,
}

METRIC_SCHEMA = {
    "type": "object",
    "properties": {
        "space": NORM_SCHEMA,
        "subvariety": SUBVARIETY_SCHEMA,
        "representative": SECTION_SCHEMA,
    },
    "required": ["space"],
    "additionalProperties": False,
}


class SchemaViolation(Exception):
    """Config failed validation; carries a JSON-pointer path."""

    def __init__(self, path: str, message: str):
        super().__init__(message)
        self.path = path
        self.message = message


def validate(instance: Any, schema: Dict[str, Any]) -> None:
    """Raise SchemaViolation for the error that JSON Schema Draft 2020-12
    reports first once sorted by path, with jsonschema 4.26's message.

    On its first use a schema is compiled into a predicate that accepts a
    valid instance at once; only a rejected one goes through the walker
    ``_errors`` for its path and message.  A schema must not change after
    its first use."""
    if _compiled(schema)(instance):
        return
    path, message = min(_errors(instance, schema, ()),
                        key=lambda e: list(map(str, e[0])))
    pointer = "/" + "/".join(str(part) for part in path)
    raise SchemaViolation("" if pointer == "/" else pointer, message)


_COMPILED: Dict[int, Tuple[Dict[str, Any], Callable[[Any], Any]]] = {}
_TYPES = {"object": dict, "array": list, "string": str}


def _compiled(schema: Dict[str, Any]) -> Callable[[Any], Any]:
    """The predicate of ``schema`` (or of a sub-schema shared by several),
    compiled once.  The cache holds the schema itself, so no later dict
    can take over its id."""
    entry = _COMPILED.get(id(schema))
    if entry is None:
        entry = _COMPILED[id(schema)] = (schema, _compile(schema))
    return entry[1]


def _is_type(instance: Any, name: str) -> bool:
    if name == "integer":  # 2.0 is an integer, True is not
        return (isinstance(instance, int) and not isinstance(instance, bool)
                or isinstance(instance, float) and instance.is_integer())
    return isinstance(instance, _TYPES[name])


def _compile(schema: Dict[str, Any]) -> Callable[[Any], Any]:
    """A predicate that is truthy exactly when ``_errors`` yields nothing:
    each check negates one keyword's error condition, so ``minimum`` is
    ``not x < v``, which NaN passes.  A keyword outside the walker's
    subset raises ValueError, an unknown type KeyError."""
    kind = schema.get("type")
    checks: List[Callable[[Any], Any]] = [] if kind is None else [
        (lambda x: _is_type(x, "integer")) if kind == "integer"
        else _TYPES[kind].__instancecheck__]  # isinstance(x, cls) in C

    def add(cls: type, check: Callable[[Any], Any]) -> None:
        """A check on the instances of ``cls`` (a bool is no number here).
        The type check runs first, so it is dropped where that check
        rejects ``cls`` and unguarded where it admits only ``cls``."""
        if kind is None:
            checks.append(lambda x: (not isinstance(x, cls) or isinstance(x, bool)
                                     or check(x)))
        elif cls is _TYPES.get(kind, Number):
            checks.append(check)

    for key, value in schema.items():
        if key == "pattern":
            add(str, re.compile(value).search)
        elif key == "enum":
            checks.append(lambda x, v=value: any(_equal(each, x) for each in v))
        elif key == "const":
            checks.append(lambda x, v=value: _equal(x, v))
        elif key == "minimum":
            add(Number, lambda x, v=value: not x < v)
        elif key == "maximum":
            add(Number, lambda x, v=value: not x > v)
        elif key == "minItems":
            add(list, lambda x, v=value: not len(x) < v)
        elif key == "minProperties":
            add(dict, lambda x, v=value: not len(x) < v)
        elif key == "maxProperties":
            add(dict, lambda x, v=value: not len(x) > v)
        elif key == "required":
            add(dict, lambda x, v=value: all(map(x.__contains__, v)))
        elif key == "properties":
            for name, sub in value.items():
                add(dict, lambda x, n=name, s=_compiled(sub): n not in x or s(x[n]))
        elif key == "patternProperties":
            for regex, sub in value.items():
                add(dict, lambda x, r=re.compile(regex).search, s=_compiled(sub): all(
                    s(item) for name, item in x.items() if r(name)))
        elif key == "additionalProperties" and value is False:
            known = set(schema.get("properties", {}))
            joined = "|".join(schema.get("patternProperties", {}))
            search = re.compile(joined).search if joined else known.__contains__
            add(dict, lambda x: known.issuperset(x) or all(
                k in known or search(k) for k in x))
        elif key == "items":
            add(list, lambda x, s=_compiled(value): all(map(s, x)))
        elif key == "allOf":
            checks.extend(map(_compiled, value))
        elif key == "if":
            checks.append(lambda x, s=_compiled(value),
                          t=_compiled(schema.get("then", {})): not s(x) or t(x))
        elif key not in ("type", "then"):
            raise ValueError(f"validate does not interpret {key!r}: {value!r}")
    if len(checks) == 1:
        return checks[0]
    if len(checks) == 2:
        first, second = checks
        return lambda x: first(x) and second(x)

    def every(x: Any) -> bool:
        for check in checks:
            if not check(x):
                return False
        return True
    return every


def _equal(a: Any, b: Any) -> bool:
    """JSON equality: True is not 1, also inside arrays and objects."""
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_equal, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_equal(v, b[k]) for k, v in a.items())
    return isinstance(a, bool) == isinstance(b, bool) and a == b


def _errors(instance: Any, schema: Dict[str, Any],
            path: Tuple) -> Iterator[Tuple[Tuple, str]]:
    """Every (path, message) that Draft 2020-12 yields, keywords in dict
    order; ``validate`` compiles the schema first, so every keyword here
    is one ``_compile`` interprets."""
    is_object, is_array = isinstance(instance, dict), isinstance(instance, list)
    for key, value in schema.items():
        if key == "type" and not _is_type(instance, value):
            yield path, f"{instance!r} is not of type {value!r}"
        elif (key == "pattern" and isinstance(instance, str)
              and not re.search(value, instance)):
            yield path, f"{instance!r} does not match {value!r}"
        elif key == "enum" and not any(_equal(each, instance) for each in value):
            yield path, f"{instance!r} is not one of {value!r}"
        elif key == "const" and not _equal(instance, value):
            yield path, f"{value!r} was expected"
        elif (key == "minimum" and isinstance(instance, Number)
              and not isinstance(instance, bool) and instance < value):
            yield path, f"{instance!r} is less than the minimum of {value!r}"
        elif (key == "maximum" and isinstance(instance, Number)
              and not isinstance(instance, bool) and instance > value):
            yield path, f"{instance!r} is greater than the maximum of {value!r}"
        elif key == "minItems" and is_array and len(instance) < value:
            yield path, f"{instance!r} " + ("should be non-empty" if value == 1
                                            else "is too short")
        elif key == "minProperties" and is_object and len(instance) < value:
            yield path, f"{instance!r} " + ("should be non-empty" if value == 1
                                            else "does not have enough properties")
        elif key == "maxProperties" and is_object and len(instance) > value:
            yield path, f"{instance!r} " + ("is expected to be empty" if value == 0
                                            else "has too many properties")
        elif key == "required" and is_object:
            for name in value:
                if name not in instance:
                    yield path, f"{name!r} is a required property"
        elif key == "properties" and is_object:
            for name, sub in value.items():
                if name in instance:
                    yield from _errors(instance[name], sub, path + (name,))
        elif key == "patternProperties" and is_object:
            for regex, sub in value.items():
                for name, item in instance.items():
                    if re.search(regex, name):
                        yield from _errors(item, sub, path + (name,))
        elif key == "additionalProperties" and is_object:
            joined = "|".join(schema.get("patternProperties", {}))
            extras = sorted(k for k in instance if k not in schema.get("properties", {})
                            and not (joined and re.search(joined, k)))
            names, one = ", ".join(map(repr, extras)), len(extras) == 1
            if extras and "patternProperties" in schema:
                regexes = ", ".join(map(repr, sorted(schema["patternProperties"])))
                yield path, (f"{names} {'does' if one else 'do'} not match any "
                             f"of the regexes: {regexes}")
            elif extras:
                yield path, (f"Additional properties are not allowed ({names} "
                             f"{'was' if one else 'were'} unexpected)")
        elif key == "items" and is_array:
            for index, item in enumerate(instance):
                yield from _errors(item, value, path + (index,))
        elif key == "allOf":
            for sub in value:
                yield from _errors(instance, sub, path)
        elif key == "if" and next(_errors(instance, value, path), None) is None:
            yield from _errors(instance, schema.get("then", {}), path)


# ----------------------------------------------------------------------
# rational / magnitude codecs
# ----------------------------------------------------------------------


def rational_to_str(x) -> str:
    """A rational, or a constant of Q(T), as NUM/DEN."""
    x = _constant_value(x)
    return _ratio_to_str(x.numerator, x.denominator)


def _ratio_to_str(num: int, den: int) -> str:
    try:
        return f"{num}/{den}"
    except ValueError as exc:  # beyond Python's int-to-str digit limit
        raise PreconditionError("result too large to print: an integer exceeds "
                                "the interpreter's decimal digit limit") from exc


def rational_from_str(s: str) -> Fraction:
    """A string that matches ``RATIONAL``, without Fraction's own parser."""
    num, _, den = s.partition("/")
    try:
        return Fraction(int(num), int(den or 1))
    except ValueError as exc:  # beyond Python's str-to-int digit limit
        raise PreconditionError("input too large to read: an integer exceeds "
                                "the interpreter's decimal digit limit") from exc


def matrix_to_json(rows: Sequence[Sequence[Fraction]]) -> List[List[str]]:
    return [[rational_to_str(x) for x in row] for row in rows]


def matrix_from_json(rows: Sequence[Sequence[str]]) -> List[List[Fraction]]:
    return [[rational_from_str(x) for x in row] for row in rows]


def magnitude_to_json(m: Magnitude) -> Dict[str, Any]:
    return {"q": _ratio_to_str(m.num, m.den), "n": m.n}


def magnitude_from_json(data: Dict[str, Any], field: ValuedField) -> Magnitude:
    q = rational_from_str(data["q"])
    return Magnitude(field.rho, q, int(data["n"]))


# ----------------------------------------------------------------------
# structured codecs
# ----------------------------------------------------------------------


def space_to_json(space: NormedSpace) -> Dict[str, Any]:
    return {
        "field": space.field.to_json(),
        "basis": matrix_to_json(space.basis),
        "weights": [magnitude_to_json(w) for w in space.weights],
    }


def field_from_json(data: Dict[str, Any], pointer: str = "") -> ValuedField:
    """Decode a validated field; a non-prime p, which the schema cannot
    see, is a SchemaViolation at ``pointer`` (where ``data`` sits)."""
    try:
        return ValuedField.from_json(data)
    except ValueError as exc:
        key = "base_prime" if data["type"] == "laurent" else "p"
        raise SchemaViolation(f"{pointer}/{key}", str(exc)) from exc


def space_from_json(data: Dict[str, Any], pointer: str = "") -> NormedSpace:
    """Decode a validated norm; a bad field or a weight that is not
    positive is a SchemaViolation at a path below ``pointer`` (where
    ``data`` sits)."""
    field = field_from_json(data["field"], pointer + "/field")
    basis = matrix_from_json(data["basis"])
    weights = []
    for i, w in enumerate(data["weights"]):
        try:
            weights.append(magnitude_from_json(w, field))
        except ValueError as exc:
            key = "q" if w["q"].startswith("-") else "n"
            raise SchemaViolation(f"{pointer}/weights/{i}/{key}", str(exc)) from exc
        if weights[-1].is_zero:
            raise SchemaViolation(f"{pointer}/weights/{i}/q", "weights must be positive")
    return NormedSpace(field, basis, weights)


def section_to_json(s: Section) -> Dict[str, Any]:
    coeffs = s.coeffs
    return {"degree": s.degree, "variables": s.num_vars,
            "coeffs": {",".join(map(str, e)): rational_to_str(coeffs[e]) for e in sorted(coeffs)}}


def section_from_json(data: Dict[str, Any], field: ValuedField, pointer: str = "",
                      check: Optional[Callable[[int, int], None]] = None) -> Section:
    """Decode a validated section; an exponent of the wrong arity or degree,
    or one that an earlier key already names ("1,0" and "01,0"), is a
    SchemaViolation at ``pointer``/coeffs/KEY (where ``data`` sits).
    ``check(degree, variables)``, when given, runs once every key is read and
    before the dense section, C(n + m, m) integers, is allocated."""
    num_vars = int(data["variables"])
    degree = int(data["degree"])
    coeffs, keys = {}, {}
    for key, val in data["coeffs"].items():
        try:
            exp = tuple(int(e) for e in key.split(","))
        except ValueError as exc:  # beyond Python's str-to-int digit limit
            raise SchemaViolation(f"{pointer}/coeffs/{key}", str(exc)) from exc
        if len(exp) != num_vars:
            raise SchemaViolation(f"{pointer}/coeffs/{key}",
                                  f"exponent arity {len(exp)} != {num_vars}")
        if sum(exp) != degree:
            raise SchemaViolation(f"{pointer}/coeffs/{key}",
                                  f"exponent degree {sum(exp)} != {degree}")
        if exp in keys:
            raise SchemaViolation(f"{pointer}/coeffs/{key}",
                                  f"exponent {key} repeats key {keys[exp]}")
        keys[exp] = key
        coeffs[exp] = field.from_rational(rational_from_str(val))
    if check:
        check(degree, num_vars)
    return Section(field, num_vars, degree, coeffs)


def subvariety_from_json(data: Dict[str, Any], field: ValuedField,
                         num_vars: int) -> Subvariety:
    if "points" in data:
        return Subvariety(field, num_vars,
                          points=matrix_from_json(data["points"]))
    return Subvariety(field, num_vars,
                      linear_forms=matrix_from_json(data["linear"]))
