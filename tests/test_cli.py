"""Command-line interface, the JSON instance format, and the generator."""

import copy
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treesynth import (
    InvalidInstance,
    ParseError,
    TreeSynthError,
    UnknownNode,
    build_instance,
    generate_document,
    parse_instance,
    solve,
    solver,
)
from treesynth.cli import (
    DEFAULT_LENGTH_POOL,
    format_rational,
    instance_document,
    instance_hash,
    parse_rational,
    run,
)
from treesynth.model import Realization, RequirementMatrix

from helpers import caterpillar_instance, fixture_path, random_instance, star_instance

SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# nested deeper than the JSON decoder's recursion allows
DEEP_JSON = "[" * 100_000 + "]" * 100_000


def doc_text(instance):
    return json.dumps(instance_document(instance))


class TestRationals:
    def test_format(self):
        assert format_rational(Fraction(7, 3)) == "7/3"
        assert format_rational(Fraction(4, 2)) == 2
        assert format_rational(0) == 0
        assert format_rational(Fraction(-1, 2)) == "-1/2"

    def test_parse(self):
        assert parse_rational(3) == 3
        assert parse_rational("0.5") == Fraction(1, 2)
        assert parse_rational("7/3") == Fraction(7, 3)

    def test_parse_rejects_inexact_or_foreign(self):
        with pytest.raises(ParseError):
            parse_rational(0.5)
        with pytest.raises(ParseError):
            parse_rational(True)
        with pytest.raises(ParseError):
            parse_rational(None)
        with pytest.raises(ParseError):
            parse_rational("x")

    def test_round_trip(self):
        for value in (0, 5, Fraction(1, 2), Fraction(7, 3), Fraction(22, 11)):
            assert parse_rational(format_rational(value)) == value


class TestParseInstance:
    def test_round_trip_preserves_the_instance(self):
        original = star_instance({("a", "b"): 3, ("a", "c"): 2, ("b", "c"): 2})
        assert parse_instance(doc_text(original)) == original

    def test_round_trip_on_generated_instances(self):
        for seed in range(5):
            instance = random_instance(seed, terminals=5, inner=2)
            assert parse_instance(doc_text(instance)) == instance

    def test_rejects_bad_json(self):
        with pytest.raises(ParseError):
            parse_instance("{nope")

    def test_deep_nesting_is_a_parse_error(self):
        with pytest.raises(ParseError, match="invalid JSON: maximum recursion depth"):
            parse_instance(DEEP_JSON)

    def test_integer_beyond_the_digit_limit_is_a_parse_error(self):
        with pytest.raises(ParseError, match="invalid JSON: Exceeds the limit"):
            parse_instance("[" + "1" * 5000 + "]")

    def test_rejects_wrong_version(self):
        doc = json.loads(doc_text(star_instance({("a", "b"): 2})))
        doc["version"] = "insp-json-v2"
        with pytest.raises(ParseError):
            parse_instance(json.dumps(doc))

    def test_rejects_unknown_fields(self):
        doc = json.loads(doc_text(star_instance({("a", "b"): 2})))
        doc["comment"] = "hello"
        with pytest.raises(ParseError):
            parse_instance(json.dumps(doc))

    def test_rejects_missing_fields(self):
        doc = json.loads(doc_text(star_instance({("a", "b"): 2})))
        del doc["requirements"]
        with pytest.raises(ParseError):
            parse_instance(json.dumps(doc))

    def test_rejects_float_lengths(self):
        doc = json.loads(doc_text(star_instance({("a", "b"): 2})))
        doc["tree"]["edges"][0]["length"] = 0.5
        with pytest.raises(ParseError) as info:
            parse_instance(json.dumps(doc))
        assert "inexact" in str(info.value)

    def test_accepts_quoted_decimal_lengths(self):
        doc = json.loads(doc_text(star_instance({("a", "b"): 2})))
        doc["tree"]["edges"][0]["length"] = "0.5"
        parse_instance(json.dumps(doc))

    def test_rejects_non_integer_requirements(self):
        doc = json.loads(doc_text(star_instance({("a", "b"): 2})))
        doc["requirements"][0]["r"] = "2"
        with pytest.raises(ParseError):
            parse_instance(json.dumps(doc))
        doc["requirements"][0]["r"] = True
        with pytest.raises(ParseError):
            parse_instance(json.dumps(doc))

    def test_rejects_duplicate_requirement_pairs(self):
        doc = json.loads(doc_text(star_instance({("a", "b"): 2})))
        doc["requirements"].append({"s": "b", "t": "a", "r": 2})
        with pytest.raises(InvalidInstance, match="pair a-b appears twice"):
            parse_instance(json.dumps(doc))

    def test_rejects_non_string_identifiers(self):
        doc = json.loads(doc_text(star_instance({("a", "b"): 2})))
        doc["terminals"][0] = 7
        with pytest.raises(ParseError):
            parse_instance(json.dumps(doc))

    def test_rejects_a_terminal_list_that_is_not_a_list(self):
        doc = json.loads(doc_text(star_instance({("a", "b"): 2})))
        doc["terminals"] = "t0"
        with pytest.raises(ParseError, match="^terminals: expected a list$"):
            parse_instance(json.dumps(doc))


# Bad entries for the pair lists. Each case maps the entry it replaces and the
# list's (endpoint, endpoint, value) keys to the entries put in its place; a
# value case replaces the value field instead. The expected exceptions and
# messages are pinned literally: the one-pass read of well-formed requirement
# rows must leave every error as it was.
STRUCTURE_CASES = {
    "non-object": lambda e, a, b, v: [list(e.values())],
    "missing key": lambda e, a, b, v: [{x: e[x] for x in e if x != v}],
    "unknown key": lambda e, a, b, v: [{**e, "w": 1}],
    "non-string endpoint": lambda e, a, b, v: [{**e, b: 7}],
    "self pair": lambda e, a, b, v: [{**e, b: e[a]}],
    "reversed duplicate": lambda e, a, b, v: [{**e, a: e[b], b: e[a]}, e],
    "zero duplicate": lambda e, a, b, v: [{**e, v: 0}, e],
    "outside endpoint": lambda e, a, b, v: [{**e, b: "zz"}],
}
ENTRY_KEYS = {"tree.edges": ("u", "v", "length"), "requirements": ("s", "t", "r")}

ENTRY_ERRORS = {
    ("tree.edges", 0, "non-object"): (ParseError, "tree.edges[0]: expected an object"),
    ("tree.edges", 0, "missing key"): (ParseError, "tree.edges[0]: missing fields ['length']"),
    ("tree.edges", 0, "unknown key"): (ParseError, "tree.edges[0]: unknown fields ['w']"),
    ("tree.edges", 0, "non-string endpoint"): (ParseError, "tree.edges[0]: endpoints must be strings"),
    ("tree.edges", 0, "self pair"): (InvalidInstance, "self-loop at 't0'"),
    ("tree.edges", 0, "reversed duplicate"): (InvalidInstance, "duplicate edge t0-t1"),
    ("tree.edges", 0, "zero duplicate"): (InvalidInstance, "duplicate edge t0-t1"),
    ("tree.edges", 0, "outside endpoint"): (UnknownNode, "edge 't0'-'zz' has an endpoint outside the node list"),
    ("tree.edges", 0, True): (ParseError, "tree.edges[0].length: expected a number, got a boolean"),
    ("tree.edges", 0, "x"): (ParseError, "tree.edges[0].length: cannot read 'x' as a rational"),
    ("tree.edges", 0, 2.5): (ParseError, 'tree.edges[0].length: floats are inexact; quote it, e.g. "1/2" or "0.5"'),
    ("tree.edges", 0, None): (ParseError, "tree.edges[0].length: expected an int or string, got NoneType"),
    ("tree.edges", 0, "-1"): (InvalidInstance, "edge t0-t1 has negative length -1"),
    ("tree.edges", 5, "non-object"): (ParseError, "tree.edges[5]: expected an object"),
    ("tree.edges", 5, "missing key"): (ParseError, "tree.edges[5]: missing fields ['length']"),
    ("tree.edges", 5, "unknown key"): (ParseError, "tree.edges[5]: unknown fields ['w']"),
    ("tree.edges", 5, "non-string endpoint"): (ParseError, "tree.edges[5]: endpoints must be strings"),
    ("tree.edges", 5, "self pair"): (InvalidInstance, "self-loop at 't0'"),
    ("tree.edges", 5, "reversed duplicate"): (InvalidInstance, "duplicate edge t0-t6"),
    ("tree.edges", 5, "zero duplicate"): (InvalidInstance, "duplicate edge t0-t6"),
    ("tree.edges", 5, "outside endpoint"): (UnknownNode, "edge 't0'-'zz' has an endpoint outside the node list"),
    ("tree.edges", 5, True): (ParseError, "tree.edges[5].length: expected a number, got a boolean"),
    ("tree.edges", 5, "x"): (ParseError, "tree.edges[5].length: cannot read 'x' as a rational"),
    ("tree.edges", 5, 2.5): (ParseError, 'tree.edges[5].length: floats are inexact; quote it, e.g. "1/2" or "0.5"'),
    ("tree.edges", 5, None): (ParseError, "tree.edges[5].length: expected an int or string, got NoneType"),
    ("tree.edges", 5, "-1"): (InvalidInstance, "edge t0-t6 has negative length -1"),
    ("requirements", 0, "non-object"): (ParseError, "requirements[0]: expected an object"),
    ("requirements", 0, "missing key"): (ParseError, "requirements[0]: missing fields ['r']"),
    ("requirements", 0, "unknown key"): (ParseError, "requirements[0]: unknown fields ['w']"),
    ("requirements", 0, "non-string endpoint"): (ParseError, "requirements[0]: endpoints must be strings"),
    ("requirements", 0, "self pair"): (InvalidInstance, "requirement pairs 't0' with itself"),
    ("requirements", 0, "reversed duplicate"): (InvalidInstance, "pair t0-t1 appears twice"),
    ("requirements", 0, "zero duplicate"): (InvalidInstance, "pair t0-t1 appears twice"),
    ("requirements", 0, "outside endpoint"): (UnknownNode, "requirement references non-terminal 't0'-'zz'"),
    ("requirements", 0, True): (ParseError, "requirements[0].r: expected an integer, got True"),
    ("requirements", 0, "2"): (ParseError, "requirements[0].r: expected an integer, got '2'"),
    ("requirements", 0, 2.0): (ParseError, "requirements[0].r: expected an integer, got 2.0"),
    ("requirements", 0, None): (ParseError, "requirements[0].r: expected an integer, got None"),
    ("requirements", 0, -1): (InvalidInstance, "requirement r('t0','t1') is negative"),
    ("requirements", 5, "non-object"): (ParseError, "requirements[5]: expected an object"),
    ("requirements", 5, "missing key"): (ParseError, "requirements[5]: missing fields ['r']"),
    ("requirements", 5, "unknown key"): (ParseError, "requirements[5]: unknown fields ['w']"),
    ("requirements", 5, "non-string endpoint"): (ParseError, "requirements[5]: endpoints must be strings"),
    ("requirements", 5, "self pair"): (InvalidInstance, "requirement pairs 't0' with itself"),
    ("requirements", 5, "reversed duplicate"): (InvalidInstance, "pair t0-t6 appears twice"),
    ("requirements", 5, "zero duplicate"): (InvalidInstance, "pair t0-t6 appears twice"),
    ("requirements", 5, "outside endpoint"): (UnknownNode, "requirement references non-terminal 't0'-'zz'"),
    ("requirements", 5, True): (ParseError, "requirements[5].r: expected an integer, got True"),
    ("requirements", 5, "2"): (ParseError, "requirements[5].r: expected an integer, got '2'"),
    ("requirements", 5, 2.0): (ParseError, "requirements[5].r: expected an integer, got 2.0"),
    ("requirements", 5, None): (ParseError, "requirements[5].r: expected an integer, got None"),
    ("requirements", 5, -1): (InvalidInstance, "requirement r('t0','t6') is negative"),
}

# standard error of `verify` on a bare realization list; {path} is its file
REALIZATION_ERRORS = {
    (0, "non-object"): "error: realization[0]: expected an object\n",
    (0, "missing key"): "error: realization[0]: missing fields ['y']\n",
    (0, "unknown key"): "error: realization[0]: unknown fields ['w']\n",
    (0, "non-string endpoint"): "error: realization[0]: endpoints must be strings\n",
    (0, "self pair"): "error: {path}: realization pairs 't0' with itself\n",
    (0, "reversed duplicate"): "error: realization[1]: duplicate pair ('t0', 't1')\n",
    (0, "zero duplicate"): "error: realization[1]: duplicate pair ('t0', 't1')\n",
    (0, True): "error: realization[0].y: expected an integer\n",
    (0, "2"): "error: realization[0].y: expected an integer\n",
    (0, 2.0): "error: realization[0].y: expected an integer\n",
    (0, None): "error: realization[0].y: expected an integer\n",
    (0, -1): "error: {path}: realization value on ('t0', 't1') is negative\n",
    (5, "non-object"): "error: realization[5]: expected an object\n",
    (5, "missing key"): "error: realization[5]: missing fields ['y']\n",
    (5, "unknown key"): "error: realization[5]: unknown fields ['w']\n",
    (5, "non-string endpoint"): "error: realization[5]: endpoints must be strings\n",
    (5, "self pair"): "error: {path}: realization pairs 't0' with itself\n",
    (5, "reversed duplicate"): "error: realization[6]: duplicate pair ('t0', 't6')\n",
    (5, "zero duplicate"): "error: realization[6]: duplicate pair ('t0', 't6')\n",
    (5, True): "error: realization[5].y: expected an integer\n",
    (5, "2"): "error: realization[5].y: expected an integer\n",
    (5, 2.0): "error: realization[5].y: expected an integer\n",
    (5, None): "error: realization[5].y: expected an integer\n",
    (5, -1): "error: {path}: realization value on ('t0', 't6') is negative\n",
}


def _inner_requirement_endpoint(doc):
    """Put a new inner node s0 in the middle of tree edge t0-t1, and make
    requirements[0] pair it with t0."""
    edges = doc["tree"]["edges"]
    edges[0:1] = [{**edges[0], "v": "s0"}, {**edges[0], "u": "s0"}]
    doc["tree"]["nodes"].append("s0")
    doc["requirements"][0]["t"] = "s0"


def _disconnected_tree_and_duplicate_requirement(doc):
    """Turn tree edge t4-t7 into t1-t2, which closes a cycle and cuts t7 off,
    and append requirement t0-t1 again, reversed."""
    doc["tree"]["edges"][6] = {"u": "t1", "v": "t2", "length": 1}
    doc["requirements"].append({"s": "t1", "t": "t0", "r": 6})


# Faults made by editing the document around the pair lists, on the same
# document as ENTRY_ERRORS.
DOCUMENT_ERRORS = {
    "requirements not a list": (
        lambda doc: doc.update(requirements={}),
        ParseError, "requirements: expected a list",
    ),
    "inner requirement endpoint": (
        _inner_requirement_endpoint,
        UnknownNode, "requirement references non-terminal 's0'-'t0'",
    ),
    # two faults: the requirement rows are read before the tree is built
    "disconnected tree and duplicate requirement": (
        _disconnected_tree_and_duplicate_requirement,
        InvalidInstance, "pair t0-t1 appears twice",
    ),
}


def _with_bad_entry(entries, k, case, keys):
    if case in STRUCTURE_CASES:
        entries[k:k + 1] = STRUCTURE_CASES[case](entries[k], *keys)
    else:
        entries[k] = {**entries[k], keys[2]: case}


def _entry_error_document():
    """A flat 8-terminal `gen` document: 7 tree edges and 28 requirements."""
    return generate_document(8, 0, 2, 6, seed=3)


class TestEntryErrors:
    @pytest.mark.parametrize("field, k, case", list(ENTRY_ERRORS), ids=repr)
    def test_each_bad_entry_keeps_its_error(self, field, k, case):
        doc = _entry_error_document()
        entries = doc["tree"]["edges"] if field == "tree.edges" else doc["requirements"]
        _with_bad_entry(entries, k, case, ENTRY_KEYS[field])
        kind, message = ENTRY_ERRORS[field, k, case]
        with pytest.raises(TreeSynthError) as info:
            parse_instance(json.dumps(doc))
        assert (type(info.value), str(info.value)) == (kind, message)

    @pytest.mark.parametrize("case", list(DOCUMENT_ERRORS))
    def test_each_document_fault_keeps_its_error(self, case):
        doc = _entry_error_document()
        edit, kind, message = DOCUMENT_ERRORS[case]
        edit(doc)
        with pytest.raises(TreeSynthError) as info:
            parse_instance(json.dumps(doc))
        assert (type(info.value), str(info.value)) == (kind, message)

    @pytest.mark.parametrize("k", [0, 5, 27])
    def test_zero_requirement_is_dropped(self, k):
        doc = _entry_error_document()
        rows = doc["requirements"]
        rows[k]["r"] = 0
        instance = parse_instance(json.dumps(doc))
        s, t = rows[k]["s"], rows[k]["t"]
        assert instance.requirements.get(s, t) == 0
        assert dict(instance.requirements.pairs()) == {
            (row["s"], row["t"]): row["r"] for row in rows if row["r"]
        }

    @pytest.mark.parametrize("k, case", list(REALIZATION_ERRORS), ids=repr)
    def test_each_bad_realization_entry_keeps_its_error(self, tmp_path, capsys, k, case):
        instance = tmp_path / "instance.json"
        instance.write_text(json.dumps(_entry_error_document()))
        entries = [{"s": "t0", "t": f"t{i}", "y": 1} for i in range(1, 8)]
        _with_bad_entry(entries, k, case, ("s", "t", "y"))
        realization = tmp_path / "realization.json"
        realization.write_text(json.dumps(entries))
        code, out, err = run_cli(capsys, "verify", str(instance), str(realization))
        assert (code, out, err) == (1, "", REALIZATION_ERRORS[k, case].format(path=realization))

    def test_entry_format_errors_come_before_model_errors(self):
        doc = _entry_error_document()
        doc["requirements"][0]["t"] = doc["requirements"][0]["s"]
        doc["requirements"][5]["r"] = "2"
        with pytest.raises(ParseError, match=r"^requirements\[5\]\.r: expected an integer, got '2'$"):
            parse_instance(json.dumps(doc))


@st.composite
def requirement_rows(draw):
    """(s, t, r) rows over four names with int r in -1..3, so self pairs,
    negatives, zeros and repeats all occur; some lists also get a repeated
    pair, flipped or not, with its zero row first or last."""
    names = st.sampled_from("abcd")
    rows = draw(st.lists(st.tuples(names, names, st.integers(-1, 3)), max_size=8))
    if draw(st.booleans()):
        s, t = draw(names), draw(names)
        zero = (s, t, 0)
        other = (t, s, draw(st.integers(-1, 3))) if draw(st.booleans()) else (s, t, draw(st.integers(-1, 3)))
        rows = [zero, *rows, other] if draw(st.booleans()) else [other, *rows, zero]
    return rows


@given(requirement_rows())
def test_parsed_requirements_follow_the_matrix_rule(rows):
    # the parser's one-pass row loop must agree with RequirementMatrix on
    # every row list: the same entries in the same order, or the same error
    doc = {
        "version": "insp-json-v1",
        "terminals": list("abcd"),
        "tree": {"nodes": list("abcd"), "edges": [{"u": "a", "v": v, "length": 1} for v in "bcd"]},
        "requirements": [{"s": s, "t": t, "r": r} for s, t, r in rows],
    }

    def outcome(build):
        try:
            return list(build().pairs())
        except TreeSynthError as exc:
            return type(exc), str(exc)

    expected = outcome(lambda: RequirementMatrix(rows))
    assert outcome(lambda: parse_instance(json.dumps(doc)).requirements) == expected


class TestInstanceHash:
    def test_stable_against_node_and_edge_order(self):
        spokes = [("hub", t, "1/2") for t in ("a", "b", "c")]
        reqs = [("a", "b", 2), ("a", "c", 2), ("b", "c", 2)]
        one = build_instance(["a", "b", "c"], ["a", "b", "c", "hub"], spokes, reqs)
        two = build_instance(["a", "b", "c"], ["hub", "c", "b", "a"], spokes[::-1], reqs)
        assert two != one
        assert instance_hash(one) == instance_hash(two)

    def test_sensitive_to_requirements(self):
        one = star_instance({("a", "b"): 2, ("a", "c"): 2, ("b", "c"): 2})
        two = star_instance({("a", "b"): 3, ("a", "c"): 2, ("b", "c"): 2})
        assert instance_hash(one) != instance_hash(two)

    def test_shape(self):
        digest = instance_hash(star_instance({("a", "b"): 2}))
        assert len(digest) == 16
        int(digest, 16)


class TestGenerateDocument:
    def test_deterministic(self):
        a = generate_document(terminals=6, inner=3, rmin=2, rmax=6, seed=9)
        b = generate_document(terminals=6, inner=3, rmin=2, rmax=6, seed=9)
        assert a == b

    def test_seed_changes_the_draw(self):
        a = generate_document(terminals=6, inner=3, rmin=2, rmax=6, seed=9)
        b = generate_document(terminals=6, inner=3, rmin=2, rmax=6, seed=10)
        assert a != b

    def test_documents_parse_and_solve(self):
        for seed in range(8):
            instance = random_instance(seed, terminals=4, inner=2)
            assert len(instance.terminals) == 4

    def test_no_inner_nodes(self):
        doc = generate_document(terminals=3, inner=0, rmin=2, rmax=2, seed=0)
        assert doc["tree"]["nodes"] == ["t0", "t1", "t2"]
        assert len(doc["tree"]["edges"]) == 2

    def test_every_leaf_is_a_terminal(self):
        for seed in range(10):
            doc = generate_document(terminals=5, inner=3, rmin=2, rmax=4, seed=seed)
            degree = {}
            for e in doc["tree"]["edges"]:
                degree[e["u"]] = degree.get(e["u"], 0) + 1
                degree[e["v"]] = degree.get(e["v"], 0) + 1
            for name in doc["tree"]["nodes"]:
                if name.startswith("s"):
                    assert degree.get(name, 0) >= 2

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            generate_document(terminals=0, inner=0, rmin=2, rmax=2, seed=0)
        with pytest.raises(ValueError):
            generate_document(terminals=3, inner=-1, rmin=2, rmax=2, seed=0)
        with pytest.raises(ValueError):
            generate_document(terminals=3, inner=0, rmin=3, rmax=2, seed=0)
        with pytest.raises(ValueError):
            generate_document(terminals=3, inner=0, rmin=2, rmax=2, seed=0, lengths=())

    def test_lengths_come_from_the_pool(self):
        doc = generate_document(
            terminals=6, inner=2, rmin=2, rmax=3, seed=3, lengths=("1", "2")
        )
        assert {e["length"] for e in doc["tree"]["edges"]} <= {1, 2}


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolveCommand:
    def test_solves_the_half_star(self, capsys):
        code, out, err = run_cli(capsys, "solve", fixture_path("half_star.json"))
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "ok"
        assert doc["cost"] == 3
        assert doc["formula_cost"] == 3
        assert doc["realization"] == [
            {"s": "a", "t": "b", "y": 1},
            {"s": "a", "t": "c", "y": 1},
            {"s": "b", "t": "c", "y": 1},
        ]
        assert doc["join"] == []
        assert len(doc["instance_hash"]) == 16

    def test_check_flag_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", fixture_path("half_star.json"), "--check"
        )
        assert code == 0
        assert json.loads(out)["status"] == "ok"

    def test_trace_goes_to_stderr(self, capsys):
        code, out, err = run_cli(
            capsys, "solve", fixture_path("half_star.json"), "--trace"
        )
        assert code == 0
        lines = [line for line in err.splitlines() if line]
        assert lines == ["split hub a b 1", "split hub a c 1", "split hub b c 1"]
        json.loads(out)

    def test_precondition_violation_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "solve", fixture_path("zero_bridge_triads.json")
        )
        assert code == 2
        assert out == ""
        assert "u-v" in err
        assert "cut requirement 0" in err

    def test_missing_file_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "solve", "no_such_file.json")
        assert code == 1
        assert "cannot read" in err

    def test_long_path_solves_and_verifies_without_recursion(self, tmp_path, capsys):
        # the only augmenting path runs through all 1,500 terminals, deeper
        # than the interpreter's default recursion limit
        k = 1500
        names = [f"t{i}" for i in range(k)]
        doc = {
            "version": "insp-json-v1",
            "terminals": names,
            "tree": {
                "nodes": names,
                "edges": [{"u": names[i], "v": names[i + 1], "length": 1} for i in range(k - 1)],
            },
            "requirements": [{"s": "t0", "t": names[-1], "r": 2}],
        }
        instance_file = tmp_path / "path.json"
        result_file = tmp_path / "result.json"
        instance_file.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "solve", str(instance_file), "--check")
        assert (code, err) == (0, "")
        result_file.write_text(out)
        code, out, err = run_cli(capsys, "verify", str(instance_file), str(result_file))
        assert (code, err) == (0, "")
        assert json.loads(out) == {"status": "ok", "cost": 2 * (k - 1)}

    def test_deep_caterpillar_solves_and_verifies(self, tmp_path, capsys):
        instance_file = tmp_path / "caterpillar.json"
        result_file = tmp_path / "result.json"
        instance_file.write_text(json.dumps(instance_document(caterpillar_instance(30))))
        code, out, err = run_cli(capsys, "solve", str(instance_file), "--check")
        assert (code, err) == (0, "")
        result_file.write_text(out)
        code, out, err = run_cli(capsys, "verify", str(instance_file), str(result_file))
        assert (code, err) == (0, "")
        assert json.loads(out) == {"status": "ok", "cost": 88}

    def test_unexpected_exception_exits_4_with_one_line(self, monkeypatch, capsys):
        def broken(instance):
            raise RuntimeError("boom")

        monkeypatch.setattr("treesynth.cli.solve", broken)
        code, out, err = run_cli(capsys, "solve", fixture_path("half_star.json"))
        assert (code, out, err) == (4, "", "internal invariant failure: RuntimeError: boom\n")

    def test_realization_off_the_formula_cost_exits_4(self, monkeypatch, capsys):
        realize = solver.realize_capacity

        def one_unit_short(instance, capacity):
            realization, trace = realize(instance, capacity)
            values = dict(realization.items())
            values[min(p for p in values if instance.tree.distance(*p) > 0)] -= 1
            return Realization(values), trace

        monkeypatch.setattr(solver, "realize_capacity", one_unit_short)
        code, out, err = run_cli(capsys, "solve", fixture_path("half_star.json"))
        assert (code, out, err) == (
            4,
            "",
            "internal invariant failure: realization cost 2 does not match the formula value 3\n",
        )

    def test_infeasible_capacity_exits_4(self, monkeypatch, capsys):
        monkeypatch.setattr(solver, "verify_feasible_capacity", lambda *_: [("parity", "hub", 3)])
        code, out, err = run_cli(capsys, "solve", fixture_path("half_star.json"))
        assert (code, out) == (4, "")
        assert err == (
            "internal invariant failure: chosen capacity is not feasible: [('parity', 'hub', 3)]\n"
        )

    def test_failed_audit_under_check_exits_4(self, monkeypatch, capsys):
        monkeypatch.setattr(solver, "verify_realization", lambda *_: [("a", "b", 1)])
        code, out, err = run_cli(capsys, "solve", fixture_path("half_star.json"))
        assert (code, err) == (0, "")
        code, out, err = run_cli(capsys, "solve", fixture_path("half_star.json"), "--check")
        assert (code, out) == (4, "")
        assert err == "internal invariant failure: solution fails verification: [('a', 'b', 1)]\n"

    def test_assertion_error_exits_4(self, monkeypatch, capsys):
        def broken(instance):
            raise AssertionError("cut screen and flow check disagree")

        monkeypatch.setattr("treesynth.cli.solve", broken)
        code, out, err = run_cli(capsys, "solve", fixture_path("half_star.json"))
        assert (code, out, err) == (
            4,
            "",
            "internal invariant failure: cut screen and flow check disagree\n",
        )

    def test_duplicate_terminals_exit_1(self, tmp_path, capsys):
        with open(fixture_path("half_star.json")) as fh:
            doc = json.load(fh)
        doc["terminals"].append("a")
        path = tmp_path / "twice.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "solve", str(path))
        assert (code, out, err) == (1, "", "error: duplicate terminal identifiers\n")

    def test_deeply_nested_document_exits_1(self, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text(DEEP_JSON)
        code, out, err = run_cli(capsys, "solve", str(deep))
        assert (code, out) == (1, "")
        assert err.startswith("error: invalid JSON: maximum recursion depth")

    @pytest.mark.parametrize("length", ["1e5000", "1e-5000", "1e1000000000"])
    def test_huge_exponent_length_exits_1(self, tmp_path, capsys, length):
        doc = json.loads(doc_text(star_instance({("a", "b"): 2})))
        doc["tree"]["edges"][0]["length"] = length
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "solve", str(path))
        assert (code, out) == (1, "")
        assert err == f"error: tree.edges[0].length: cannot read {length!r} as a rational\n"

    @pytest.mark.parametrize("command", ["solve", "bound"])
    @pytest.mark.parametrize("length", ["1e4300", "1e-4300", "1e4299"])
    def test_answer_beyond_the_digit_limit_exits_1(self, tmp_path, capsys, command, length):
        # 1e4300 and 1e-4300 pass the parse but the instance hash cannot
        # print them; 1e4299 prints, but a cost of 20 of it cannot
        doc = json.loads(doc_text(star_instance({("a", "b"): 20})))
        doc["tree"]["edges"][0]["length"] = length
        path = tmp_path / "long.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, command, str(path))
        assert (code, out) == (1, "")
        limit = sys.get_int_max_str_digits()
        assert err == (
            f"error: a value in the answer exceeds the {limit:,}-digit limit for printing an integer\n"
        )

    def test_malformed_instance_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"version": "insp-json-v1"}')
        code, _, err = run_cli(capsys, "solve", str(bad))
        assert code == 1
        assert "missing fields" in err


class TestBoundCommand:
    def test_reports_both_values_when_defined(self, capsys):
        code, out, _ = run_cli(capsys, "bound", fixture_path("half_star.json"))
        assert code == 0
        doc = json.loads(out)
        assert doc["fractional_lower_bound"] == 3
        assert doc["integer_cost_formula"] == 3

    def test_reports_violations_instead_of_the_formula(self, capsys):
        code, out, _ = run_cli(capsys, "bound", fixture_path("zero_bridge_triads.json"))
        assert code == 0
        doc = json.loads(out)
        assert doc["fractional_lower_bound"] == 36
        assert doc["integer_cost_formula"] is None
        assert doc["precondition_violations"] == [
            {"u": "u", "v": "v", "cut_requirement": 0}
        ]


class TestJoinCommand:
    def test_single_odd_node(self, capsys):
        code, out, _ = run_cli(
            capsys, "join", fixture_path("half_star.json"), "--odd", "hub"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["cost"] == "1/2"
        assert doc["edges"] == [{"u": "a", "v": "hub"}]

    def test_infeasible_constraints(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "join",
            fixture_path("half_star.json"),
            "--odd",
            "hub",
            "--even",
            "a,b,c",
        )
        assert code == 0
        assert json.loads(out) == {"status": "infeasible"}

    def test_unknown_node_exits_1(self, capsys):
        code, _, err = run_cli(
            capsys, "join", fixture_path("half_star.json"), "--odd", "zz"
        )
        assert code == 1
        assert "zz" in err

    def test_overlapping_sets_exit_1(self, capsys):
        code, _, err = run_cli(
            capsys,
            "join",
            fixture_path("half_star.json"),
            "--odd",
            "hub",
            "--even",
            "hub",
        )
        assert code == 1
        assert "hub" in err


class TestVerifyCommand:
    def test_accepts_solve_output(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "solve", fixture_path("half_star.json"))
        assert code == 0
        result = tmp_path / "result.json"
        result.write_text(out)
        code, out, _ = run_cli(
            capsys, "verify", fixture_path("half_star.json"), str(result)
        )
        assert code == 0
        assert json.loads(out) == {"status": "ok", "cost": 3}

    def test_accepts_bare_entry_lists(self, tmp_path, capsys):
        entries = tmp_path / "bare.json"
        entries.write_text(
            json.dumps(
                [
                    {"s": "a", "t": "b", "y": 1},
                    {"s": "a", "t": "c", "y": 1},
                    {"s": "b", "t": "c", "y": 1},
                ]
            )
        )
        code, out, _ = run_cli(
            capsys, "verify", fixture_path("half_star.json"), str(entries)
        )
        assert code == 0
        assert json.loads(out)["cost"] == 3

    def test_reports_violations_with_exit_3(self, tmp_path, capsys):
        entries = tmp_path / "short.json"
        entries.write_text(json.dumps([{"s": "a", "t": "b", "y": 2}]))
        code, out, _ = run_cli(
            capsys, "verify", fixture_path("half_star.json"), str(entries)
        )
        assert code == 3
        doc = json.loads(out)
        assert doc["status"] == "violations"
        assert {"s": "a", "t": "c", "deficit": 2} in doc["violations"]

    def test_hash_mismatch_exits_1(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.json"
        bogus.write_text(
            json.dumps({"instance_hash": "0" * 16, "realization": []})
        )
        code, _, err = run_cli(
            capsys, "verify", fixture_path("half_star.json"), str(bogus)
        )
        assert code == 1
        assert "hash mismatch" in err

    def test_duplicate_pairs_rejected(self, tmp_path, capsys):
        entries = tmp_path / "dup.json"
        entries.write_text(
            json.dumps(
                [{"s": "a", "t": "b", "y": 1}, {"s": "b", "t": "a", "y": 1}]
            )
        )
        code, _, err = run_cli(
            capsys, "verify", fixture_path("half_star.json"), str(entries)
        )
        assert code == 1
        assert "duplicate" in err

    def test_deeply_nested_realization_exits_1(self, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text(DEEP_JSON)
        code, out, err = run_cli(capsys, "verify", fixture_path("half_star.json"), str(deep))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: invalid JSON in {deep}: maximum recursion depth")

    def test_integer_beyond_the_digit_limit_exits_1(self, tmp_path, capsys):
        huge = tmp_path / "huge.json"
        huge.write_text("[" + "1" * 5000 + "]")
        code, out, err = run_cli(capsys, "verify", fixture_path("half_star.json"), str(huge))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: invalid JSON in {huge}: Exceeds the limit")

    @pytest.mark.parametrize("s, t", [(1, "a"), ("a", ["b"]), (None, "b")])
    def test_non_string_endpoints_are_parse_errors(self, tmp_path, capsys, s, t):
        entries = tmp_path / "odd.json"
        entries.write_text(json.dumps([{"s": s, "t": t, "y": 1}]))
        code, out, err = run_cli(
            capsys, "verify", fixture_path("half_star.json"), str(entries)
        )
        assert code == 1
        assert out == ""
        assert "realization[0]: endpoints must be strings" in err
        assert "Traceback" not in err

    def test_missing_realization_file_exits_1(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        code, out, err = run_cli(capsys, "verify", fixture_path("half_star.json"), str(missing))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: cannot read {missing}: ")
        assert err.count("\n") == 1

    def test_object_without_realization_exits_1(self, tmp_path, capsys):
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps({"instance_hash": "0" * 16}))
        code, out, err = run_cli(capsys, "verify", fixture_path("half_star.json"), str(bare))
        assert (code, out, err) == (1, "", f"error: {bare}: no 'realization' field\n")


class TestGenCommand:
    def test_byte_identical_for_a_fixed_seed(self, capsys):
        args = ["gen", "--terminals", "5", "--inner", "2", "--seed", "7"]
        code_a, out_a, _ = run_cli(capsys, *args)
        code_b, out_b, _ = run_cli(capsys, *args)
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_output_parses_and_solves(self, capsys):
        code, out, _ = run_cli(
            capsys, "gen", "--terminals", "4", "--inner", "1", "--seed", "3"
        )
        assert code == 0
        instance = parse_instance(out)
        assert solve(instance).cost >= 0

    def test_custom_length_pool(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "gen",
            "--terminals",
            "4",
            "--seed",
            "0",
            "--lengths",
            "1, 2",
        )
        assert code == 0
        doc = json.loads(out)
        assert {e["length"] for e in doc["tree"]["edges"]} <= {1, 2}

    def test_bad_arguments_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "gen", "--terminals", "0")
        assert code == 1

    def test_negative_length_pool_exits_1(self, capsys):
        # a negative length would give a document the parser rejects
        with pytest.raises(ValueError, match="length pool entries cannot be negative"):
            generate_document(terminals=3, inner=0, rmin=2, rmax=2, seed=0, lengths=("1", "-1/2"))
        code, out, err = run_cli(capsys, "gen", "--terminals", "3", "--lengths=-1")
        assert (code, out, err) == (1, "", "error: length pool entries cannot be negative\n")

    def test_too_few_terminals_to_pad_exit_1(self, capsys):
        code, out, err = run_cli(capsys, "gen", "--terminals", "1", "--inner", "5")
        assert (code, out) == (1, "")
        assert err == "error: cannot pad every inner node with the terminals available\n"


class TestArgumentParsing:
    def test_help_exits_0(self, capsys):
        assert run(["--help"]) == 0
        capsys.readouterr()

    def test_unknown_command_exits_1(self, capsys):
        assert run(["frobnicate"]) == 1
        capsys.readouterr()

    def test_no_arguments_exit_1(self, capsys):
        assert run([]) == 1
        capsys.readouterr()


def test_module_entry_point_runs():
    env = dict(os.environ, PYTHONPATH=SRC_DIR)
    proc = subprocess.run(
        [sys.executable, "-m", "treesynth", "gen", "--terminals", "3", "--seed", "1"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    json.loads(proc.stdout)


def test_closed_output_pipe_exits_1_with_one_line():
    # the document is far larger than a pipe buffer, so the write fails
    # once the reader has gone
    env = dict(os.environ, PYTHONPATH=SRC_DIR)
    proc = subprocess.Popen(
        [sys.executable, "-m", "treesynth", "gen", "--terminals", "60", "--inner", "0", "--seed", "3"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait() == 1
    assert err == "error: cannot write output: [Errno 32] Broken pipe\n"


def test_pipeline_round_trip(tmp_path, capsys):
    instance_file = tmp_path / "instance.json"
    result_file = tmp_path / "result.json"
    code, out, _ = run_cli(
        capsys, "gen", "--terminals", "6", "--inner", "2", "--seed", "21"
    )
    assert code == 0
    instance_file.write_text(out)
    code, out, _ = run_cli(capsys, "solve", str(instance_file), "--check")
    assert code == 0
    result_file.write_text(out)
    solved = json.loads(out)
    code, out, _ = run_cli(capsys, "verify", str(instance_file), str(result_file))
    assert code == 0
    verified = json.loads(out)
    assert verified["status"] == "ok"
    assert verified["cost"] == solved["cost"]


JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(),
    st.integers(-(10**30), 10**30),
    st.text(max_size=4),
    st.lists(st.integers(-3, 3), max_size=2),
    st.dictionaries(st.sampled_from(["u", "v", "s", "t", "r", "y", "length", "x"]), st.integers(-3, 3), max_size=2),
)


def _slots(doc):
    """(container, key) for every value inside a JSON document."""
    out = []
    stack = [doc]
    while stack:
        container = stack.pop()
        for key in list(container) if isinstance(container, dict) else range(len(container)):
            out.append((container, key))
            if isinstance(container[key], (dict, list)):
                stack.append(container[key])
    return out


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mutated_documents_raise_only_package_errors(data):
    """A `gen` document with keys, values or list entries changed parses or
    fails with one of the package's own exceptions, never another one."""
    doc = generate_document(
        terminals=data.draw(st.integers(2, 5)),
        inner=data.draw(st.integers(0, 2)),
        rmin=2,
        rmax=4,
        seed=data.draw(st.integers(0, 50)),
    )
    for _ in range(data.draw(st.integers(1, 3))):
        slots = _slots(doc)
        if not slots:
            break
        container, key = data.draw(st.sampled_from(slots))
        op = data.draw(st.sampled_from(["drop", "replace", "add"]))
        if op == "drop":
            del container[key]
        elif op == "replace":
            container[key] = data.draw(JUNK)
        elif isinstance(container, list):
            entry = data.draw(st.one_of(st.just(copy.deepcopy(container[key])), JUNK))
            container.insert(key, entry)
        else:
            container[data.draw(st.text(max_size=3))] = data.draw(JUNK)
    try:
        parse_instance(json.dumps(doc))
    except TreeSynthError:
        pass
