"""CLI surface: output formats, exit codes, determinism, JSON round-trips."""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import molien
from molien import (
    EXACT,
    SquareMatrix,
    close_group,
    float_backend,
    invariant_basis,
    parse_polynomial,
)
from molien.cli import main

C4_SPEC = {
    "dimension": 2,
    "backend": "exact",
    "generators": [[["0", "-1"], ["1", "0"]]],
}

S2_SPEC = {
    "dimension": 2,
    "backend": "exact",
    "generators": [[["0", "1"], ["1", "0"]]],
}


def write_spec(tmp_path, spec, name="group.json"):
    path = tmp_path / name
    path.write_text(json.dumps(spec))
    return str(path)


def run_cli(*argv):
    # the child imports the molien these tests import, from a checkout or installed
    path = [os.path.dirname(os.path.dirname(molien.__file__)), os.environ.get("PYTHONPATH")]
    return subprocess.run(
        [sys.executable, "-m", "molien.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
    )


class TestSeriesCommand:
    def test_c4_text(self, tmp_path, capsys):
        code = main(["series", "--degree", "4", write_spec(tmp_path, C4_SPEC)])
        out = capsys.readouterr().out
        assert code == 0
        assert "group_order = 4" in out
        assert "a = [1, 0, 1, 0, 3]" in out

    def test_trivial_group(self, tmp_path, capsys):
        spec = {"dimension": 2, "backend": "exact", "generators": [[["1", "0"], ["0", "1"]]]}
        code = main(["series", "--degree", "2", write_spec(tmp_path, spec)])
        assert code == 0
        assert "a = [1, 2, 3]" in capsys.readouterr().out

    def test_malformed_scalar(self, tmp_path, capsys):
        spec = {"dimension": 2, "backend": "exact", "generators": [[["1//2", "0"], ["0", "1"]]]}
        code = main(["series", "--degree", "2", write_spec(tmp_path, spec)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error:parse:")

    def test_json_format(self, tmp_path, capsys):
        code = main(["series", "--degree", "4", "--format", "json", write_spec(tmp_path, C4_SPEC)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["group_order"] == 4
        assert [entry["series"] for entry in payload["degrees"]] == [1, 0, 1, 0, 3]

    def test_perm_generators(self, capsys):
        code = main(["series", "--degree", "6", "--perm", "(1 2)(3)", "--perm", "(1 2 3)"])
        out = capsys.readouterr().out
        assert code == 0
        assert "group_order = 6" in out
        assert "a = [1, 1, 2, 3, 4, 5, 7]" in out


class TestInvariantsCommand:
    def test_s2_degree_two(self, tmp_path, capsys):
        code = main(["invariants", "--degree", "2", write_spec(tmp_path, S2_SPEC)])
        out = capsys.readouterr().out
        assert code == 0
        assert "a_2 = 2" in out
        assert "x1^2 + x2^2" in out
        assert "x1*x2" in out

    def test_pm_identity_degree_three_empty(self, tmp_path, capsys):
        spec = {"dimension": 2, "backend": "exact", "generators": [[["-1", "0"], ["0", "-1"]]]}
        code = main(["invariants", "--degree", "3", write_spec(tmp_path, spec)])
        out = capsys.readouterr().out
        assert code == 0
        assert "a_3 = 0" in out

    def test_degree_zero_constant(self, tmp_path, capsys):
        code = main(["invariants", "--degree", "0", write_spec(tmp_path, C4_SPEC)])
        out = capsys.readouterr().out
        assert code == 0
        assert "a_0 = 1" in out
        assert "\n1\n" in out

    def test_json_polynomials_parse_back(self, tmp_path, capsys):
        code = main(
            ["invariants", "--degree", "2", "--format", "json", write_spec(tmp_path, S2_SPEC)]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        block = payload["invariants"]
        assert block["d"] == 2 and block["dimension"] == 2
        parsed = [parse_polynomial(text, 2, EXACT) for text in block["basis"]]
        assert parsed[0].coefficient((2, 0)) == EXACT.one
        assert parsed[1].coefficient((1, 1)) == EXACT.one

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_float_invariants_with_non_real_coefficients(self, tmp_path, capsys, fmt):
        # [[0, 1], [i, 0]] generates a group of order 8 whose degree-4 invariants
        # need a non-real coefficient
        spec = {"dimension": 2, "backend": "float", "generators": [[["0", "1"], ["i", "0"]]]}
        path = write_spec(tmp_path, spec)
        code = main(["invariants", "--degree", "4", "--format", fmt, path])
        out = capsys.readouterr().out
        assert code == 0
        expected = ["x1^4 + x2^4", "x1^3*x2 + 1i*x1*x2^3"]
        if fmt == "json":
            payload = json.loads(out)
            assert payload["group_order"] == 8
            assert payload["invariants"]["basis"] == expected
        else:
            assert out.splitlines() == ["group_order = 8", "a_4 = 2", *expected]
        backend = float_backend()
        group = close_group([SquareMatrix(spec["generators"][0], backend)])
        basis = invariant_basis(group, 4)
        assert len(basis) == len(expected)
        for text, f in zip(expected, basis):
            assert parse_polynomial(text, 2, backend).equals(f)


class TestVerifyCommand:
    def test_s3_all_agree(self, capsys):
        code = main(["verify", "--degree", "6", "--perm", "(1 2)(3)", "--perm", "(1 2 3)"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.rstrip().endswith("OK")

    def test_q8_all_agree(self, tmp_path, capsys):
        spec = {
            "dimension": 2,
            "backend": "exact",
            "generators": [
                [["i", "0"], ["0", "-i"]],
                [["0", "-1"], ["1", "0"]],
            ],
        }
        code = main(["verify", "--degree", "6", write_spec(tmp_path, spec)])
        assert code == 0
        assert capsys.readouterr().out.rstrip().endswith("OK")

    def test_non_unitary_generator(self, tmp_path, capsys):
        spec = {"dimension": 2, "backend": "exact", "generators": [[["2", "0"], ["0", "1"]]]}
        code = main(["verify", "--degree", "2", write_spec(tmp_path, spec)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error:validation:")

    def test_tolerance_breach_exits_two(self, tmp_path, capsys):
        # absurd tolerance merges group elements and drops true pivots: the
        # cross check must report the mismatch via exit code 2, not an exception
        spec = {
            "dimension": 2,
            "backend": "float",
            "generators": [[[0.0, -1.0], [1.0, 0.0]]],
            "tolerance": 1.5,
        }
        code = main(["verify", "--degree", "2", write_spec(tmp_path, spec)])
        out = capsys.readouterr().out
        assert code == 2
        assert out.rstrip().endswith("MISMATCH")

    def test_tolerance_breach_is_one_mismatch_line(self, tmp_path, capsys):
        # the rotation closes to order 1 at tolerance 1.5 (its rows match
        # the identity's at their own positions), so the series disagrees
        spec = {
            "dimension": 2,
            "backend": "float",
            "generators": [[[0.0, -1.0], [1.0, 0.0]]],
            "tolerance": 1.5,
        }
        assert main(["verify", "--degree", "2", write_spec(tmp_path, spec)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:mismatch:") and err.count("\n") == 1

    def test_coarse_tolerance_still_verifies_c4(self, tmp_path, capsys):
        # the rank rows are scaled to be unitary, so a tolerance of 0.6 keeps
        # every true pivot of the C4 rotation
        spec = {
            "dimension": 2,
            "backend": "float",
            "generators": [[[0.0, -1.0], [1.0, 0.0]]],
            "tolerance": 0.6,
        }
        code = main(["verify", "--degree", "2", write_spec(tmp_path, spec)])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.rstrip().endswith("OK")
        assert captured.err == ""

    def test_tolerance_flag_overrides_file(self, tmp_path, capsys):
        spec = {
            "dimension": 2,
            "backend": "float",
            "generators": [[[0.0, -1.0], [1.0, 0.0]]],
        }
        path = write_spec(tmp_path, spec)
        assert main(["verify", "--degree", "2", path]) == 0
        capsys.readouterr()
        assert main(["verify", "--degree", "2", "--tolerance", "1.5", path]) == 2

    def test_json_contains_agreement(self, tmp_path, capsys):
        code = main(["verify", "--degree", "3", "--format", "json", write_spec(tmp_path, C4_SPEC)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert all(set(e) == {"d", "series", "trace", "rank", "agree"} for e in payload["degrees"])
        assert all(e["agree"] for e in payload["degrees"])


    @pytest.mark.parametrize(
        "bumped, message",
        [
            ({2}, "d=2 series=2 trace=2 rank=3"),
            ({0, 3}, "d=0 series=1 trace=1 rank=2; d=3 series=3 trace=3 rank=4"),
        ],
    )
    def test_mismatch_names_each_disagreeing_degree(self, monkeypatch, capsys, bumped, message):
        import molien.series

        honest = molien.series._fixed_space_dimensions

        def off_by_one(group, ladder):
            return [r + (d in bumped) for d, r in enumerate(honest(group, ladder))]

        # cross_check hands its one ladder to the rank column's private helper
        monkeypatch.setattr(molien.series, "_fixed_space_dimensions", off_by_one)
        argv = ["verify", "--degree", "3", "--perm", "(1 2)(3)", "--perm", "(1 2 3)"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        rows = [
            f"{d:>3}  {a:>6}  {a:>6}  {a + (d in bumped):>6}  {'NO' if d in bumped else 'yes'}"
            for d, a in enumerate([1, 1, 2, 3])
        ]
        header = f"{'d':>3}  {'series':>6}  {'trace':>6}  {'rank':>6}  agree"
        assert captured.out == "\n".join(["group_order = 6", header, *rows, "MISMATCH"]) + "\n"
        assert captured.err == f"error:mismatch: {message}\n"
        assert main(argv + ["--format", "json"]) == 2
        captured = capsys.readouterr()
        assert [e["agree"] for e in json.loads(captured.out)["degrees"]] == [
            d not in bumped for d in range(4)
        ]
        assert captured.err == f"error:mismatch: {message}\n"

    def test_agreement_prints_nothing_on_stderr(self, capsys):
        assert main(["verify", "--degree", "3", "--perm", "(1 2)(3)", "--perm", "(1 2 3)"]) == 0
        assert capsys.readouterr().err == ""


class TestErrorPaths:
    def test_missing_file(self, capsys):
        code = main(["series", "--degree", "2", "/nonexistent/group.json"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error:input:")

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code = main(["series", "--degree", "2", str(path)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:parse:")

    def test_invalid_json_offset_is_in_bytes(self, tmp_path, capsys):
        # like every other parse error offset, the JSON one counts bytes,
        # not the decoded characters before the failure
        content = '{"name": "\u00e9\u00e9\u00e9\u00e9", "dimension": x}'.encode("utf-8")
        path = tmp_path / "broken.json"
        path.write_bytes(content)
        code = main(["series", "--degree", "2", str(path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:parse:")
        assert err.endswith(f"(at offset {content.index(b'x')})\n")

    @pytest.mark.parametrize(
        "content",
        [b"\xff\xfe{}", b"[" * 100_000, b'{"dimension": ' + b"1" * 5000 + b"}"],
        ids=["not-utf8", "nested-too-deep", "integer-too-long"],
    )
    def test_unreadable_spec_is_one_parse_error(self, tmp_path, content):
        path = tmp_path / "group.json"
        path.write_bytes(content)
        result = run_cli("series", "--degree", "2", str(path))
        assert result.returncode == 1
        assert result.stderr.startswith("error:parse:")
        assert result.stderr.count("error:") == result.stderr.count("\n") == 1
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize(
        "content, kind",
        [
            (b"\xff\xfe{}", "parse"),
            (b"[" * 100_000, "parse"),
            (b'{"dimension": ' + b"1" * 5000 + b"}", "parse"),
            (b"[" + json.dumps(C4_SPEC).encode() + b"]", "validation"),
        ],
        ids=["not-utf8", "nested-too-deep", "integer-too-long", "top-level-array"],
    )
    def test_unreadable_spec_in_process(self, tmp_path, capsys, content, kind):
        # the same inputs in this process, where a line trace of the suite sees their branches
        path = tmp_path / "group.json"
        path.write_bytes(content)
        code = main(["series", "--degree", "2", str(path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error:{kind}:")
        assert err.count("error:") == err.count("\n") == 1
        assert "Traceback" not in err

    def test_tolerance_with_perm(self, capsys):
        code = main(["series", "--degree", "2", "--perm", "(1 2)", "--tolerance", "1e-6"])
        err = capsys.readouterr().err
        assert code == 1
        assert err == "error:validation: tolerance only applies to the float backend\n"

    def test_exact_generator_of_infinite_order_overflows_at_once(self, tmp_path, capsys):
        rotation = [["3/5", "4/5"], ["-4/5", "3/5"]]
        spec = {"dimension": 2, "backend": "exact", "generators": [rotation]}
        code = main(["series", "--degree", "2", write_spec(tmp_path, spec)])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error:overflow:")
        assert err.count("\n") == 1

    def test_closure_overflow(self, tmp_path, capsys):
        code = main(["series", "--degree", "2", "--max-order", "3", write_spec(tmp_path, C4_SPEC)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err.startswith("error:overflow:")

    def test_consistency_error_exits_four(self, tmp_path, capsys):
        # approximately unitary generator drifts the coefficients off
        # integers by more than the rounding tolerance
        eps = 1e-4
        spec = {
            "dimension": 2,
            "backend": "float",
            "generators": [[[eps, -1.0], [1.0, 0.0]]],
            "tolerance": 1e-3,
        }
        code = main(["series", "--degree", "4", write_spec(tmp_path, spec)])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.err.startswith("error:consistency:")

    def test_missing_spec_and_perm(self, capsys):
        code = main(["series", "--degree", "2"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:validation:")

    def test_file_and_perm_conflict(self, tmp_path, capsys):
        code = main(
            ["series", "--degree", "2", "--perm", "(1 2)", write_spec(tmp_path, C4_SPEC)]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error:validation:")

    def test_tolerance_with_exact_backend(self, tmp_path, capsys):
        code = main(
            ["series", "--degree", "2", "--tolerance", "1e-6", write_spec(tmp_path, C4_SPEC)]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error:validation:")

    @pytest.mark.parametrize(
        "source, message",
        [
            (["--perm", "()"], "cycle notation names no points"),
            ({"dimension": 2, "backend": "exact", "generators": []}, "generators must be a nonempty list"),
        ],
        ids=["empty-cycle", "no-generators"],
    )
    def test_empty_group_is_one_validation_error(self, tmp_path, capsys, source, message):
        args = source if isinstance(source, list) else [write_spec(tmp_path, source)]
        assert main(["series", "--degree", "2", *args]) == 1
        assert capsys.readouterr().err == f"error:validation: {message}\n"

    def test_bad_cycle_notation(self, capsys):
        code = main(["series", "--degree", "2", "--perm", "(1 2"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:validation:")

    def test_negative_degree(self, capsys):
        code = main(["series", "--degree", "-1", "--perm", "(1 2)"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:validation:")

    def test_missing_degree_is_input_error_not_mismatch(self, capsys):
        code = main(["series", "--perm", "(1 2)"])
        captured = capsys.readouterr()
        assert code == 1
        assert "error:usage:" in captured.err

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "series" in capsys.readouterr().out

    def test_bad_backend_tag(self, tmp_path, capsys):
        spec = dict(C4_SPEC, backend="decimal")
        code = main(["series", "--degree", "2", write_spec(tmp_path, spec)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:validation:")

    @pytest.mark.parametrize("flag", ["-1", "nan", "1e-310"])
    def test_bad_tolerance_flag(self, tmp_path, capsys, flag):
        spec = {"dimension": 1, "backend": "float", "generators": [[[-1.0]]]}
        code = main(["series", "--degree", "2", f"--tolerance={flag}", write_spec(tmp_path, spec)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:validation: tolerance")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("tolerance", ["abc", True, 10**400])
    def test_non_numeric_tolerance_in_spec(self, tmp_path, capsys, tolerance):
        spec = {"dimension": 1, "backend": "float", "generators": [[[-1.0]]], "tolerance": tolerance}
        code = main(["series", "--degree", "2", write_spec(tmp_path, spec)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:validation: tolerance")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("entry", [10**400, f"{10**400}/3"], ids=["int", "fraction"])
    def test_float_entry_too_large_for_a_float(self, tmp_path, capsys, entry):
        # the int, and the Fraction the exact literal grammar parses, overflow float()
        spec = {"dimension": 1, "backend": "float", "generators": [[[entry]]]}
        code = main(["series", "--degree", "2", write_spec(tmp_path, spec)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:validation:")
        assert "too large for a float scalar" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("entry", ["-1_0", " -1 ", "nan", "-inf", "+1", "-\u0661"])
    def test_float_string_outside_the_literal_grammars(self, tmp_path, capsys, entry):
        # float() would read each of these; a float spec string must be an
        # ASCII decimal literal or an exact scalar literal
        spec = {"dimension": 1, "backend": "float", "generators": [[[entry]]]}
        code = main(["series", "--degree", "2", write_spec(tmp_path, spec)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:parse:")
        assert err.count("error:") == err.count("\n") == 1

    @pytest.mark.parametrize("entry", ["-1", "-1.0", "-1e0", "-.1E1", "-2/2"])
    def test_float_string_literals_are_read(self, tmp_path, capsys, entry):
        spec = {"dimension": 1, "backend": "float", "generators": [[[entry]]]}
        assert main(["series", "--degree", "2", write_spec(tmp_path, spec)]) == 0
        assert capsys.readouterr().out == "group_order = 2\na = [1, 0, 1]\n"

    @pytest.mark.parametrize("key", ["dimension", "max_group_order"])
    def test_boolean_integers_rejected(self, tmp_path, capsys, key):
        spec = dict(C4_SPEC, **{key: True})
        code = main(["series", "--degree", "2", write_spec(tmp_path, spec)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error:validation: {key}")

    def test_wrong_generator_shape(self, tmp_path, capsys):
        spec = {"dimension": 2, "backend": "exact", "generators": [[["1", "0"]]]}
        code = main(["series", "--degree", "2", write_spec(tmp_path, spec)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:validation:")

    @pytest.mark.parametrize(
        "extra", [{"extra": 1}, {"max_grup_order": 2}, {"Tolerance": 1e-6}, {"": None}]
    )
    @pytest.mark.parametrize("command", ["series", "invariants", "verify"])
    def test_unknown_spec_key(self, tmp_path, capsys, command, extra):
        # a misspelt max_group_order must not drop the closure bound without a word
        (key,) = extra
        code = main([command, "--degree", "2", write_spec(tmp_path, dict(C4_SPEC, **extra))])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith(f"error:validation: unknown spec key {key!r}")
        assert captured.err.count("\n") == 1

    def test_every_spec_key_is_accepted(self, tmp_path, capsys):
        spec = {
            "dimension": 1,
            "backend": "float",
            "generators": [[[-1.0]]],
            "max_group_order": 2,
            "tolerance": 1e-6,
        }
        assert main(["series", "--degree", "2", write_spec(tmp_path, spec)]) == 0
        assert capsys.readouterr().out == "group_order = 2\na = [1, 0, 1]\n"


class TestDeterminism:
    def test_verify_is_byte_identical_across_runs(self, tmp_path):
        path = write_spec(tmp_path, C4_SPEC)
        first = run_cli("verify", "--degree", "4", path)
        second = run_cli("verify", "--degree", "4", path)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
        assert first.stdout  # sanity: something was printed

    def test_float_backend_deterministic(self, tmp_path):
        angle = 2 * math.pi / 12
        spec = {
            "dimension": 2,
            "backend": "float",
            "generators": [
                [[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]]
            ],
        }
        path = write_spec(tmp_path, spec)
        runs = [run_cli("verify", "--degree", "5", "--format", "json", path) for _ in range(2)]
        assert runs[0].stdout == runs[1].stdout
        assert runs[0].returncode == 0

    def test_json_round_trip_integers(self, tmp_path):
        path = write_spec(tmp_path, C4_SPEC)
        result = run_cli("series", "--degree", "6", "--format", "json", path)
        payload = json.loads(result.stdout)
        assert [e["series"] for e in payload["degrees"]] == [1, 0, 1, 0, 3, 0, 3]


class TestRepeatedMain:
    """main builds its parser once per process; calls must not see each other."""

    def test_repeated_calls_print_identical_stdout(self, tmp_path, capsys):
        path = write_spec(tmp_path, C4_SPEC)
        argvs = [
            ["verify", "--degree", "4", path],
            ["series", "--degree", "5", "--format", "json", "--perm", "(1 2 3)"],
            ["invariants", "--degree", "2", "--perm", "(1 2)"],
        ]
        first = []
        for argv in argvs:
            assert main(argv) == 0
            first.append(capsys.readouterr().out)
        for argv, out in zip(reversed(argvs), reversed(first)):
            assert main(argv) == 0
            assert capsys.readouterr().out == out
        assert first == [run_cli(*argv).stdout for argv in argvs]

    def test_perm_lists_do_not_carry_over(self, capsys):
        assert main(["series", "--degree", "3", "--perm", "(1 2)", "--perm", "(2 3)"]) == 0
        assert capsys.readouterr().out.startswith("group_order = 6\n")
        # the 3-cycle alone generates C3; an appended (1 2) or (2 3) would give S3
        assert main(["series", "--degree", "3", "--perm", "(1 2 3)"]) == 0
        assert capsys.readouterr().out.startswith("group_order = 3\n")
        # no --perm at all: the spec file is required again
        assert main(["series", "--degree", "3"]) == 1
        assert capsys.readouterr().err.startswith("error:validation: a group spec file")

    def test_usage_error_after_a_success_is_one_error_line(self, capsys):
        assert main(["series", "--degree", "2", "--perm", "(1 2)"]) == 0
        capsys.readouterr()
        for _ in range(2):
            assert main(["series", "--perm", "(1 2)"]) == 1
            errors = [
                line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")
            ]
            assert errors == ["error:usage: invalid command line"]


JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.sampled_from([0.0, 0.5, -1.0, 1e-12, 1e300, float("inf"), float("nan")]),
    st.sampled_from(["0", "1", "-1", "i", "-i", "1/2", "1/2+1/2i", "0.5", "1e400", "x", "", " 1"]),
    st.text(max_size=4),
)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=6,
)


@st.composite
def generator_values(draw, n):
    """An n x n monomial matrix with entries among 1, -1, i and -i, often with one entry replaced."""
    image = draw(st.permutations(range(n)))
    phases = st.sampled_from([1, -1, "i", "-i"])
    rows = [[draw(phases) if image[i] == j else 0 for j in range(n)] for i in range(n)]
    if draw(st.booleans()):
        rows[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(JSON_LEAVES)
    return rows


@st.composite
def spec_values(draw):
    """A valid spec whose keys are each kept, replaced by random JSON, dropped or joined by an unknown key."""
    n = draw(st.integers(1, 3))
    spec = {
        "dimension": n,
        "backend": draw(st.sampled_from(["exact", "float"])),
        "generators": draw(st.lists(generator_values(n), min_size=1, max_size=3)),
        "max_group_order": draw(st.integers(1, 400)),
    }
    if draw(st.booleans()):
        tolerances = st.one_of(st.floats(allow_nan=True), st.sampled_from([1e-9, "1e-6", 1.5]))
        spec["tolerance"] = draw(tolerances)
    for key in list(spec):
        action = draw(st.sampled_from(["keep"] * 6 + ["random", "drop", "unknown"]))
        if action == "random":
            spec[key] = draw(JSON_VALUES)
        elif action == "drop":
            del spec[key]
        elif action == "unknown":
            spec[key[:-1]] = spec[key]
    return spec


class TestFuzzedSpecs:
    """Any spec file gives a result or ends in one `error:` line on stderr, never a traceback."""

    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(spec=spec_values())
    def test_every_command_fails_with_one_error_line(self, spec):
        with tempfile.TemporaryDirectory() as folder:
            path = os.path.join(folder, "group.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(spec, handle)
            for command in ("series", "invariants", "verify"):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main([command, "--degree", "2", path])
                err = err.getvalue()
                assert "Traceback" not in err
                if code == 0:
                    assert err == ""
                    continue
                lines = err.splitlines()
                assert len(lines) == 1 and err.endswith("\n"), err
                assert lines[0].startswith("error:"), err
                # only a verify mismatch (exit 2) prints its table before the error line
                mismatch = code == 2 and lines[0].startswith("error:mismatch:")
                assert out.getvalue() == "" or mismatch
