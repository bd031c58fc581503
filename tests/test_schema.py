"""The built-in schema walker behind ``serialization.validate``: parity with
jsonschema on mutated configs, the keyword subset it interprets, pinned
error bytes, and the CLI's exit contract on the same mutated configs."""

from __future__ import annotations

import copy
import json
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ultranorm import LaurentRationals, PreconditionError, cli
from ultranorm import serialization as ser

from test_cli import norm_json, run, write

ADELIC = {"dim": 2, "places": {"3": norm_json(p=3)},
          "arch_functionals": [["1", "0"], ["0", "1"]]}
SECTION = {"degree": 1, "variables": 2, "coeffs": {"1,0": "1", "0,1": "-1/2"}}
LATTICE = {"columns": [["1", "0"], ["0", "2"]]}
FUNCTIONALS = {"functionals": [["1", "0"], ["0", "1"]]}
METRIC = {"space": norm_json(), "subvariety": {"points": [["1", "0"]]},
          "representative": SECTION}
TRIVIAL_METRIC = {**METRIC, "space": {
    "field": {"type": "trivial"}, "basis": [["1", "0"], ["0", "1"]],
    "weights": [{"q": "1", "n": 0}, {"q": "2", "n": 0}]}}

# valid documents for every *_SCHEMA of serialization and cli
VALID = {
    "serialization.MAGNITUDE_SCHEMA": [{"q": "1/2", "n": 0}],
    "serialization.FIELD_SCHEMA": [{"type": "padic", "p": 2}, {"type": "trivial"},
                                   {"type": "laurent", "base_prime": 3}],
    "serialization.MATRIX_SCHEMA": [LATTICE["columns"]],
    "serialization.VECTOR_SCHEMA": [["1", "-2/3"]],
    "serialization.NORM_SCHEMA": [norm_json()],
    "serialization.SECTION_SCHEMA": [SECTION],
    "serialization.SUBVARIETY_SCHEMA": [{"points": [["1", "0"]]},
                                        {"linear": [["1", "0"]]}],
    "serialization.POINTS_SCHEMA": [{"points": [["1", "2"]]}],
    "serialization.ADELIC_SCHEMA": [ADELIC],
    "serialization.LATTICE_SCHEMA": [LATTICE],
    "serialization.FUNCTIONALS_SCHEMA": [FUNCTIONALS],
    "serialization.GRADED_SCHEMA": [{"degrees": {"1": ADELIC}}],
    "serialization.METRIC_SCHEMA": [METRIC],
    "cli.ORTHOGONALIZE_SCHEMA": [{"space": norm_json(), "vectors": [["1", "0"]]}],
    "cli.QUOTIENT_SCHEMA": [{"space": norm_json(), "surjection": [["1", "1"]]}],
    "cli.DUAL_SCHEMA": [{"space": norm_json()}],
    "cli.LATTICE_SCHEMA": [{"space": norm_json()},
                           {"field": {"type": "padic", "p": 2}, "lattice": LATTICE}],
    "cli.LAMBDA_CONFIG_SCHEMA": [{"adelic": ADELIC},
                                 {"lattice": LATTICE, "norm": FUNCTIONALS}],
}

WALKER_KEYWORDS = {"type", "pattern", "enum", "const", "minimum", "maximum",
                   "minItems", "minProperties", "maxProperties", "required",
                   "properties", "patternProperties", "additionalProperties",
                   "items", "allOf", "if", "then"}

# what a mutation may put in place of a node or under a new key
JUNK = (None, True, False, 0, 1, -1, 2, 2.0, 1.5, "", "x", [], {}, ["1"],
        {"q": "1", "n": 0},
        float("nan"), float("inf"), float("-inf"))  # json.load reads all three
RATIONAL_EDGES = ("1/0", "1/02", "1/-2", "1.5", "a", "--1", "1/2/3", " 1",
                  "1\n", "-0", "99999999999999999999/7",
                  "1" * 4301)  # one digit past the str-to-int limit
KEYS = ("bogus", "0", "7", "1,0", "1,0,0", "01", "1\n", "", "type", "p",
        "points", "linear")


def _schema(name):
    module, attr = name.split(".")
    return getattr(cli if module == "cli" else ser, attr)


def _nodes(doc, path=()):
    yield path
    if isinstance(doc, dict):
        children = doc.items()
    elif isinstance(doc, list):
        children = enumerate(doc)
    else:
        children = ()
    for key, child in children:
        yield from _nodes(child, path + (key,))


def _variant(draw, node):
    """A value for the place of ``node``: another type, or the same type
    with a wrong length, key set, sign or spelling."""
    if draw(st.booleans()):
        return copy.deepcopy(draw(st.sampled_from(JUNK)))
    if isinstance(node, dict):
        node = copy.deepcopy(node)
        if node and draw(st.booleans()):
            del node[draw(st.sampled_from(sorted(node)))]
        else:
            filler = draw(st.sampled_from(JUNK + tuple(node.values())))
            node[draw(st.sampled_from(KEYS))] = copy.deepcopy(filler)
        return node
    if isinstance(node, list):
        shapes = [[], node[:-1], node + node[-1:], node + [draw(st.sampled_from(JUNK))]]
        return copy.deepcopy(draw(st.sampled_from(shapes)))
    if isinstance(node, (int, float)):  # bools included
        return draw(st.sampled_from([True, False, float(node), node - 3, -1,
                                     node + 4097]))
    return draw(st.sampled_from(RATIONAL_EDGES))


@st.composite
def mutated(draw, seeds):
    """One of ``seeds`` after zero to three mutations at random nodes."""
    doc = copy.deepcopy(draw(st.sampled_from(seeds)))
    for _ in range(draw(st.integers(0, 3))):
        path = draw(st.sampled_from(list(_nodes(doc))))
        node = doc
        for key in path:
            node = node[key]
        new = _variant(draw, node)
        if not path:
            doc = new
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = new
    return doc


def _violation(doc, schema):
    try:
        ser.validate(doc, schema)
    except ser.SchemaViolation as exc:
        return exc.path, exc.message
    return None


@settings(max_examples=300, deadline=None)
@given(st.from_regex(ser.RATIONAL["pattern"]))
def test_rational_from_str_matches_fraction(text):
    """Every string the rational pattern accepts (a trailing newline
    included, as ``$`` allows) decodes as ``Fraction(str)`` does."""
    assert ser.rational_from_str(text) == Fraction(text)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits")
                    or not 0 < sys.get_int_max_str_digits() <= 4300,
                    reason="needs the default str-to-int digit limit")
@pytest.mark.parametrize("text", ["1" * 4301, "-1/" + "7" * 4301])
def test_rational_past_digit_limit_is_a_precondition(text):
    with pytest.raises(PreconditionError, match="digit limit"):
        ser.rational_from_str(text)


def test_constants_of_q_t_print_as_rationals():
    """A constant of Q(T) prints as its rational; Q(T) holds no other
    element, since T cannot be built."""
    K = LaurentRationals(5)
    assert ser.rational_to_str(K.from_rational(Fraction(-3, 4))) == "-3/4"
    assert ser.matrix_to_json([[K.zero(), K.one(), 2]]) == [["0/1", "1/1", "2/1"]]
    assert ser.matrix_to_json([[K.one() / (K.one() + K.from_rational(Fraction(1, 3)))]]) == [
        ["3/4"]]
    with pytest.raises(ValueError, match="^the laurent field has no uniformizer element$"):
        K.uniformizer()


def test_every_schema_has_valid_configs():
    names = {f"{module.__name__.rsplit('.', 1)[1]}.{attr}"
             for module in (ser, cli) for attr in vars(module)
             if attr.endswith("_SCHEMA")}
    assert names == set(VALID)


@pytest.mark.parametrize("name", sorted(VALID))
def test_walker_matches_jsonschema(name):
    jsonschema = pytest.importorskip("jsonschema")
    schema = _schema(name)
    oracle = jsonschema.Draft202012Validator(schema)

    def expected(doc):
        errors = sorted(oracle.iter_errors(doc),
                        key=lambda e: list(map(str, e.absolute_path)))
        if not errors:
            return None
        pointer = "/" + "/".join(str(part) for part in errors[0].absolute_path)
        return ("" if pointer == "/" else pointer), errors[0].message

    @settings(max_examples=100, deadline=None)
    @given(mutated(VALID[name]))
    def check(doc):
        assert _violation(doc, schema) == expected(doc)

    check()


@pytest.mark.parametrize("name", sorted(VALID))
def test_compiled_check_matches_walker(name):
    """The compiled predicate accepts a document exactly when the walker
    finds no error in it."""
    schema = _schema(name)
    accepts = ser._compile(schema)

    @settings(max_examples=200, deadline=None)
    @given(mutated(VALID[name]))
    def check(doc):
        assert bool(accepts(doc)) == (list(ser._errors(doc, schema, ())) == [])

    check()


def test_throwaway_schemas_keep_their_own_answer():
    """A schema dropped after use cannot hand its compiled check to a new
    dict that gets the same id."""
    for bound in range(300):
        schema = {"type": "integer", "minimum": bound}
        assert _violation(bound, schema) is None
        assert _violation(bound - 1, schema) == (
            "", f"{bound - 1} is less than the minimum of {bound}")


def _subschemas(schema):
    yield schema
    for key, value in schema.items():
        if key in ("properties", "patternProperties"):
            for sub in value.values():
                yield from _subschemas(sub)
        elif key == "allOf":
            for sub in value:
                yield from _subschemas(sub)
        elif key in ("items", "if", "then"):
            yield from _subschemas(value)


@pytest.mark.parametrize("name", sorted(VALID))
def test_schemas_use_only_walker_keywords(name):
    for sub in _subschemas(_schema(name)):
        assert set(sub) <= WALKER_KEYWORDS
        assert sub.get("additionalProperties", False) is False
        assert sub.get("type", "object") in {"object", "array", "string", "integer"}
    for doc in VALID[name]:
        ser.validate(doc, _schema(name))


@pytest.mark.parametrize("schema,instance", [
    ({"type": "array", "maxItems": 1}, []),
    ({"properties": {"a": {"format": "date"}}}, {"a": "x"}),
    ({"additionalProperties": True}, {}),
    ({"additionalProperties": {"type": "string"}}, {}),
    ({"type": "number"}, 1),
    ({"if": {"type": "object"}, "else": {}}, {}),
], ids=["maxItems", "nested-format", "additional-true",
        "additional-schema", "type-number", "else"])
def test_unknown_keyword_raises(schema, instance):
    with pytest.raises((ValueError, KeyError)):
        ser.validate(instance, schema)


@pytest.mark.parametrize("instance,schema,message", [
    (2.0, {"type": "integer", "minimum": 3}, "2.0 is less than the minimum of 3"),
    (4097, {"type": "integer", "minimum": -4096, "maximum": 4096},
     "4097 is greater than the maximum of 4096"),
    (1e30, {"type": "integer", "maximum": 4096},
     "1e+30 is greater than the maximum of 4096"),
    (True, {"maximum": 0}, None),
    (True, {"type": "integer", "minimum": 3}, "True is not of type 'integer'"),
    (1, {"const": True}, "True was expected"),
    (True, {"enum": [1]}, "True is not one of [1]"),
    ("x1/2", {"pattern": "1/2$"}, None),
    ([], {"minItems": 1}, "[] should be non-empty"),
    ([1], {"minItems": 2}, "[1] is too short"),
    ({}, {"minProperties": 1}, "{} should be non-empty"),
    ({"a": 1}, {"maxProperties": 0}, "{'a': 1} is expected to be empty"),
    ({"b": 1, "a": 2}, {"additionalProperties": False},
     "Additional properties are not allowed ('a', 'b' were unexpected)"),
    ({"b": 1, "a": 2}, {"patternProperties": {"^x": {}, "^c": {}},
                        "additionalProperties": False},
     "'a', 'b' do not match any of the regexes: '^c', '^x'"),
    ({"type": "laurent"}, {"if": {"required": ["p"]}, "then": {"type": "array"}},
     None),
], ids=["integral-float", "maximum", "integral-float-maximum", "bool-maximum",
        "bool", "const-bool", "enum-bool", "search",
        "non-empty-items", "short", "non-empty-object", "empty-object",
        "extras", "extras-regexes", "if-false"])
def test_message_traps(instance, schema, message):
    violation = _violation(instance, schema)
    assert (violation and violation[1]) == message


@pytest.mark.parametrize("command,config,stderr", [
    ("dual", {"space": {**norm_json(), "field": {"type": "padic"}}},
     '{"error": "schema", "message": "\'p\' is a required property", '
     '"path": "/space/field"}\n'),
    ("dual", {"space": {**norm_json(), "field": {"type": "padic"}}, "bogus": 1},
     '{"error": "schema", "message": "Additional properties are not allowed '
     '(\'bogus\' was unexpected)", "path": ""}\n'),
    ("quotient", {"space": norm_json(weights=("1/1", "1/0")),
                  "surjection": [["1", "1"]]},
     '{"error": "schema", "message": "\'1/0\' does not match '
     '\'^-?[0-9]+(/[1-9][0-9]*)?$\'", "path": "/space/weights/1/q"}\n'),
    ("lambda", {"adelic": {**ADELIC, "places": {"3": {**norm_json(p=3), "weights": [
        {"q": "1", "n": True}, {"q": "1", "n": 0}]}}, "arch_functionals": []}},
     '{"error": "schema", "message": "[] should be non-empty", '
     '"path": "/adelic/arch_functionals"}\n'),
    ("nakai", {"degrees": {"0": ADELIC}},
     '{"error": "schema", "message": "\'0\' does not match any of the '
     'regexes: \'^[1-9][0-9]*$\'", "path": "/degrees"}\n'),
    ("extension-table", {**METRIC, "subvariety": {"points": [["1", "0"]],
                                                  "linear": [["1", "0"]]}},
     '{"error": "schema", "message": "{\'points\': [[\'1\', \'0\']], '
     '\'linear\': [[\'1\', \'0\']]} has too many properties", '
     '"path": "/subvariety"}\n'),
], ids=["required", "extras-first", "pattern", "sort-by-path", "regexes",
        "max-properties"])
def test_exit_2_stderr_bytes(tmp_path, capsys, command, config, stderr):
    cfg = write(tmp_path, "c.json", config)
    assert run(capsys, [command, "--config", cfg]) == (2, "", stderr)


# every command, with each input file it reads; degrees kept small
CLI_CASES = [
    ("orthogonalize", {"--config": VALID["cli.ORTHOGONALIZE_SCHEMA"]}, []),
    ("quotient", {"--config": VALID["cli.QUOTIENT_SCHEMA"]}, []),
    ("dual", {"--config": VALID["cli.DUAL_SCHEMA"]}, []),
    ("lattice", {"--config": VALID["cli.LATTICE_SCHEMA"]}, []),
    ("sigma-sample", {"--config": [{"space": norm_json()}],
                      "--points": VALID["serialization.POINTS_SCHEMA"]},
     ["--max-degree", "2"]),
    ("extension-table", {"--config": [METRIC]},
     ["--max-degree", "2", "--epsilon", "1/2"]),
    ("extend-trivial", {"--config": [TRIVIAL_METRIC]}, []),
    ("lambda", {"--config": VALID["cli.LAMBDA_CONFIG_SCHEMA"]}, []),
    ("lambda", {"--lattice": [LATTICE], "--norm": [FUNCTIONALS]}, []),
    ("nakai", {"--config": VALID["serialization.GRADED_SCHEMA"]}, []),
]


@pytest.mark.parametrize("command,files,extra", CLI_CASES,
                         ids=[f"{c[0]}{''.join(c[1])}" for c in CLI_CASES])
def test_cli_contract_on_mutated_configs(tmp_path, capsys, command, files,
                                         extra):
    """Exit 0 with nothing on stderr, or exit 2 or 3 with one JSON object
    on stderr and nothing on stdout; never an exception."""

    @settings(max_examples=100, deadline=None)
    @given(st.fixed_dictionaries({flag: mutated(seeds)
                                  for flag, seeds in files.items()}))
    def check(docs):
        argv = [command] + extra
        for flag, doc in docs.items():
            argv += [flag, write(tmp_path, flag[2:] + ".json", doc)]
        code, out, err = run(capsys, argv)
        assert code in (0, 2, 3)
        if code == 0:
            assert out and err == ""
        else:
            assert out == "" and err.count("\n") == 1
            assert isinstance(json.loads(err), dict)

    check()
