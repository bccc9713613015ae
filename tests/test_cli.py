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
    build_instance,
    generate_document,
    parse_instance,
    solve,
)
from treesynth.cli import (
    DEFAULT_LENGTH_POOL,
    format_rational,
    instance_document,
    instance_hash,
    parse_rational,
    run,
)

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

    def test_deeply_nested_document_exits_1(self, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text(DEEP_JSON)
        code, out, err = run_cli(capsys, "solve", str(deep))
        assert (code, out) == (1, "")
        assert err.startswith("error: invalid JSON: maximum recursion depth")

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
