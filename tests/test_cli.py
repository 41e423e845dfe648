import hashlib
import json
import time
from pathlib import Path

import pytest

from blowupcones import oracle
from blowupcones.cli import build_parser, main

DATA = Path(__file__).parent / "data"
#: Recorded `oracle --format json` outputs over two generator files (the nef
#: generators, and the orbit to degree 3 plus -K/2); every byte must repeat.
ORACLE_GOLDEN = json.loads((DATA / "oracle_golden.json").read_text(encoding="utf-8"))
#: Recorded `orbit --max-degree 13` (line count and sha256 of stdout) and the
#: whole stdout of `accumulation --max-degree 13`; every byte must repeat.
ORBIT_GOLDEN = json.loads((DATA / "orbit_golden.json").read_text(encoding="utf-8"))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestReduce:
    def test_two_step_chain(self, capsys):
        code, out, _ = run(capsys, "reduce", "3;2,2,2,2,1,1,1,0")
        assert code == 0
        assert "standard 0;0,0,0,0,0,0,0,-1" in out
        assert "cremona steps: 2" in out

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "reduce", "--format", "json", "2;1,1,1,1,1,1,1,1")
        assert code == 0
        record = json.loads(out)
        assert record == {
            "input": "2;1,1,1,1,1,1,1,1",
            "standard": "2;1,1,1,1,1,1,1,1",
            "word": [],
            "steps": 0,
        }

    def test_step_cap_exit_code(self, capsys):
        code, _, err = run(capsys, "reduce", "--max-steps", "25", "-1;0,0,0,0,0,0,0,0")
        assert code == 3
        assert "25" in err

    def test_bad_class_exit_code(self, capsys):
        code, _, err = run(capsys, "reduce", "3;1,2")
        assert code == 2
        assert "error" in err


class TestClassify:
    def test_half_anticanonical(self, capsys):
        code, out, _ = run(capsys, "classify", "2;1,1,1,1,1,1,1,1")
        assert code == 0
        assert "nef=true movable=true effective=true" in out
        assert "verdict=nef" in out

    def test_exceptional(self, capsys):
        code, out, _ = run(capsys, "classify", "0;0,0,0,0,0,0,0,-1")
        assert code == 0
        assert "nef=false movable=false effective=true" in out
        assert "verdict=effective" in out

    def test_none_verdict(self, capsys):
        code, out, _ = run(capsys, "classify", "-1;0,0,0,0,0,0,0,0", "--max-steps", "25")
        assert code == 0
        assert "verdict=none" in out

    def test_json_has_certificates(self, capsys):
        code, out, _ = run(capsys, "classify", "--format", "json", "1;0,0,0,0,0,0,0,0")
        record = json.loads(out)
        assert code == 0
        assert record["verdict"] == "nef"
        assert set(record["certificates"]) == {"nef", "eff", "mov"}

    def test_input_file(self, capsys, tmp_path):
        path = tmp_path / "classes.txt"
        path.write_text("1;0,0,0,0,0,0,0,0\n0;-1,0,0,0,0,0,0,0\n")
        code, out, _ = run(capsys, "classify", "--input", str(path))
        assert code == 0
        assert len(out.strip().splitlines()) == 2

    def test_missing_input_file(self, capsys, tmp_path):
        path = tmp_path / "absent.txt"
        code, out, err = run(capsys, "classify", "--input", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read {path}: ")

    def test_no_inputs(self, capsys):
        code, _, err = run(capsys, "classify")
        assert code == 2
        assert "no input classes" in err


class TestStepCap:
    # The class reaches standard form in two Cremona steps; a cap of one
    # leaves its verdict unknown: an "unknown" record, and exit 3.
    @pytest.mark.parametrize(
        "command", [("decompose", "--cone", "eff"), ("decompose", "--cone", "mov"), ("classify",)]
    )
    def test_cap_exits_3(self, capsys, command):
        code, out, err = run(
            capsys, *command, "--max-steps", "1", "--format", "json", "3;2,2,2,2,1,1,1,0"
        )
        assert code == 3
        assert json.loads(out) == {
            "input": "3;2,2,2,2,1,1,1,0",
            "unknown": True,
            "reason": "reduction exceeded 1 Cremona steps",
        }
        assert "exceeded 1 Cremona steps" in err

    @pytest.mark.parametrize(
        "command",
        [("reduce",), ("classify",), ("decompose", "--cone", "eff"),
         ("decompose", "--cone", "mov"), ("check-minus-one",)],
    )
    def test_capped_line_keeps_the_batch(self, capsys, command):
        texts = ["1;0,0,0,0,0,0,0,0", "3;2,2,2,2,1,1,1,0", "0;0,0,0,0,0,0,0,-1"]
        code, out, _ = run(capsys, *command, "--max-steps", "1", "--format", "json", *texts)
        assert code == 3
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == 3
        assert records[1] == {
            "input": texts[1],
            "unknown": True,
            "reason": records[1]["reason"],
        }
        assert "1 Cremona steps" in records[1]["reason"]
        for text, record in zip(texts[::2], records[::2]):
            assert "unknown" not in record
            alone = json.dumps(record, sort_keys=True) + "\n"
            assert run(capsys, *command, "--format", "json", text) == (0, alone, "")

    def test_capped_line_human_and_output_file(self, capsys, tmp_path):
        path = tmp_path / "out.txt"
        texts = ["1;0,0,0,0,0,0,0,0", "3;2,2,2,2,1,1,1,0"]
        code, out, err = run(capsys, "classify", "--max-steps", "1", "--output", str(path), *texts)
        assert (code, out) == (3, "")
        assert err == "error: reduction exceeded 1 Cremona steps\n"
        assert path.read_text(encoding="utf-8").splitlines() == [
            "1;0,0,0,0,0,0,0,0: nef=true movable=true effective=true verdict=nef",
            "3;2,2,2,2,1,1,1,0: unknown: reduction exceeded 1 Cremona steps",
        ]

    @pytest.mark.parametrize("value", ["-1", "-100"])
    def test_negative_cap_is_an_input_error(self, capsys, value):
        with pytest.raises(SystemExit) as info:
            main(["classify", "--max-steps", value, "3;2,2,2,2,1,1,1,0"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --max-steps: must be non-negative, got {value}" in err

    def test_cap_must_be_an_int(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["reduce", "--max-steps", "1.5", "3;2,2,2,2,1,1,1,0"])
        assert info.value.code == 2
        assert "argument --max-steps: invalid int value: '1.5'" in capsys.readouterr().err

    def test_zero_cap_answers_reduced_classes(self, capsys):
        code, out, _ = run(capsys, "reduce", "--max-steps", "0", "2;1,1,1,1,1,1,1,1")
        assert code == 0 and "cremona steps: 0" in out


class TestDecompose:
    @pytest.mark.parametrize(
        "cone, text",
        [
            ("eff", "2;1,1,1,1,1,1,1,0"),
            ("nef", "3;1,1,1,0,0,0,0,0"),
            ("mov", "3;1,1,3,1,1,1,1,1"),
            ("curves", "2;-1,-1,-1,-1,0,0,0,0"),
        ],
    )
    def test_round_trip_through_verify(self, capsys, tmp_path, cone, text):
        cert_path = tmp_path / "cert.json"
        code, out, _ = run(
            capsys,
            "decompose",
            "--cone",
            cone,
            "--format",
            "json",
            "--output",
            str(cert_path),
            text,
        )
        assert code == 0
        code, out, _ = run(capsys, "verify", str(cert_path))
        assert code == 0
        assert out.startswith(f"valid {cone} certificate")

    def test_help_documents_csv_columns(self, capsys):
        for command, column in (("orbit", "degree"), ("accumulation", "max_ray_distance")):
            with pytest.raises(SystemExit) as info:
                main([command, "--help"])
            assert info.value.code == 0
            out = capsys.readouterr().out
            assert "CSV columns" in out and column in out

    def test_curves(self, capsys):
        code, out, _ = run(capsys, "decompose", "--cone", "curves", "1;0,0,0,0,0,0,0,0")
        assert code == 0
        assert "1*(1;-1,-1,0,0,0,0,0,0)" in out

    def test_movable_reports_word(self, capsys):
        code, out, _ = run(capsys, "decompose", "--cone", "mov", "1;1,1,1,0,0,0,0,0")
        assert code == 0
        assert "not decomposable" in out

    def test_non_member_json(self, capsys):
        code, out, _ = run(
            capsys, "decompose", "--cone", "nef", "--format", "json", "0;-1,0,0,0,0,0,0,0"
        )
        assert code == 0
        record = json.loads(out)
        assert record["member"] is False

    def test_tampered_certificate_is_invalid(self, capsys, tmp_path):
        cert_path = tmp_path / "cert.json"
        run(
            capsys,
            "decompose",
            "--cone",
            "nef",
            "--format",
            "json",
            "--output",
            str(cert_path),
            "2;1,1,1,1,1,1,1,1",
        )
        data = json.loads(cert_path.read_text())
        data["input"] = "3;1,1,1,1,1,1,1,1"
        cert_path.write_text(json.dumps(data))
        code, out, _ = run(capsys, "verify", str(cert_path))
        assert code == 0
        assert out.startswith("invalid certificate")

    def test_rational_effective_class(self, capsys, tmp_path):
        cert_path = tmp_path / "cert.json"
        code, _, err = run(
            capsys, "decompose", "--cone", "eff", "--format", "json", "--output", str(cert_path),
            "1/2;1/2,0,0,0,0,0,0,0",
        )
        assert code == 0, err
        assert json.loads(cert_path.read_text())["input"] == "1/2;1/2,0,0,0,0,0,0,0"
        code, out, _ = run(capsys, "verify", str(cert_path))
        assert code == 0
        assert out.startswith("valid eff certificate for 1/2;1/2,0,0,0,0,0,0,0")

    @pytest.mark.parametrize(
        "change, reason",
        [
            ({"word": [9]}, "generator index must be in 0..7, got 9"),
            ({"terms": [{"gen": "0;-1/2,0,0,0,0,0,0,0", "coeff": "2"}]}, "not a generator"),
        ],
        ids=["word-letter-9", "non-integral-eff-generator"],
    )
    def test_bad_certificate_is_invalid_not_an_input_error(
        self, capsys, tmp_path, change, reason
    ):
        cert_path = tmp_path / "cert.json"
        data = {"cone": "eff", "input": "0;-1,0,0,0,0,0,0,0", "word": [],
                "terms": [{"gen": "0;-1,0,0,0,0,0,0,0", "coeff": "1"}]}
        cert_path.write_text(json.dumps({**data, **change}))
        code, out, err = run(capsys, "verify", str(cert_path))
        assert (code, err) == (0, "")
        assert out.startswith("invalid certificate: ") and reason in out

    def test_malformed_certificate_file(self, capsys, tmp_path):
        cert_path = tmp_path / "cert.json"
        cert_path.write_text("{}")
        code, _, err = run(capsys, "verify", str(cert_path))
        assert code == 2

    @pytest.mark.parametrize(
        "change, reason",
        [
            ({"word": [4.9, 0.9]}, "word letter 4.9 is not an integer"),
            ({"word": [True, False]}, "word letter True is not an integer"),
            ({"coeff": 1.0}, "coeff 1.0 is not a string"),
            ({"input": 8}, "input 8 is not a string"),
        ],
        ids=["float-letters", "bool-letters", "number-coefficient", "number-input"],
    )
    def test_json_numbers_of_the_wrong_kind_are_malformed(
        self, capsys, tmp_path, change, reason
    ):
        # Read as int() and Fraction(), [4.9, 0.9] was the word [4, 0] and 1.0 was 1,
        # so a certificate nobody wrote verified as valid.
        cert_path = tmp_path / "cert.json"
        run(capsys, "decompose", "--cone", "mov", "--format", "json", "--output",
            str(cert_path), "8;5,5,4,2,4,1,1,0")
        data = json.loads(cert_path.read_text())
        assert data["word"] == [4, 0]
        if "coeff" in change:
            data["terms"][0]["coeff"] = change["coeff"]
        else:
            data.update(change)
        cert_path.write_text(json.dumps(data))
        code, out, err = run(capsys, "verify", str(cert_path))
        assert (code, out) == (2, "")
        assert err == f"error: malformed certificate: {reason}\n"

    def test_zero_denominator_coefficient_is_malformed(self, capsys, tmp_path):
        # Fraction("1/0") raises ZeroDivisionError, not ValueError; it is an
        # input error (exit 2), not a traceback.
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps(
            {"cone": "eff", "input": "0;-1,0,0,0,0,0,0,0", "word": [],
             "terms": [{"gen": "0;-1,0,0,0,0,0,0,0", "coeff": "1/0"}]}))
        code, out, err = run(capsys, "verify", str(cert_path))
        assert (code, out) == (2, "")
        assert err == "error: malformed certificate: Fraction(1, 0)\n"

    def test_exponent_coefficient_is_malformed(self, capsys, tmp_path):
        # Fraction("1e100000000") would build the power of ten; the entry is
        # refused before that, as in a class.
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps(
            {"cone": "eff", "input": "0;-1,0,0,0,0,0,0,0", "word": [],
             "terms": [{"gen": "0;-1,0,0,0,0,0,0,0", "coeff": "1e100000000"}]}))
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", str(cert_path))
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err == ("error: malformed certificate: "
                       "exponent notation is not accepted: '1e100000000'\n")

    def test_exponent_class_is_an_input_error(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "classify", "1e100000000;0,0,0,0,0,0,0,0")
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert "exponent notation is not accepted: '1e100000000'" in err

    def test_nef_certificate_with_a_word_is_invalid(self, capsys, tmp_path):
        # The nef cone is not W-invariant: (3;2,2,2,2,0^4) meets h-e_1-e_2 in
        # -1, although s_0 carries it to H.
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps(
            {"cone": "nef", "input": "3;2,2,2,2,0,0,0,0", "word": [0],
             "terms": [{"gen": "1;0,0,0,0,0,0,0,0", "coeff": "1"}]}))
        code, out, _ = run(capsys, "verify", str(cert_path))
        assert (code, out) == (0, "invalid certificate: nef certificates carry no Weyl word\n")
        code, out, _ = run(capsys, "decompose", "--cone", "nef", "3;2,2,2,2,0,0,0,0")
        assert "meets 1;-1,-1,0,0,0,0,0,0 in -1" in out


    def test_deeply_nested_json_is_malformed(self, capsys, tmp_path):
        # json.loads raises RecursionError, not JSONDecodeError, on nesting
        # past the interpreter's stack; it is an input error, not a traceback.
        cert_path = tmp_path / "cert.json"
        cert_path.write_text("[" * 100_000)
        code, out, err = run(capsys, "verify", str(cert_path))
        assert (code, out) == (2, "")
        assert err.startswith("error: malformed certificate: ")


class TestOrbitCommands:
    def test_orbit_csv(self, capsys):
        import csv
        import io

        from blowupcones import DivisorClass

        code, out, _ = run(capsys, "orbit", "--max-degree", "2")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["class", "degree"]
        assert len(rows) == 233
        for text, degree in rows[1:]:
            divisor = DivisorClass.parse(text)
            assert str(divisor.d) == degree

    def test_orbit_deterministic(self, capsys):
        _, first, _ = run(capsys, "orbit", "--max-degree", "1")
        _, second, _ = run(capsys, "orbit", "--max-degree", "1")
        assert first == second

    def test_accumulation_csv(self, capsys):
        code, out, _ = run(capsys, "accumulation", "--max-degree", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "degree,max_ray_distance,approx"
        assert lines[1].startswith("0,11/12,")
        assert len(lines) == 5

    def test_orbit_golden(self, capsys):
        golden = ORBIT_GOLDEN["orbit"]
        code, out, err = run(capsys, *golden["argv"])
        assert (code, err) == (0, "")
        assert out.count("\n") == golden["lines"]
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == golden["sha256"]

    def test_accumulation_golden(self, capsys):
        golden = ORBIT_GOLDEN["accumulation"]
        assert run(capsys, *golden["argv"]) == (0, golden["stdout"], "")

    @pytest.mark.parametrize("command", ["orbit", "accumulation"])
    def test_over_the_orbit_cap_exits_3(self, capsys, tmp_path, command):
        # Degree 16 holds 72 760 orbit classes, over MAX_GENERATORS (60 000).
        target = tmp_path / "out.csv"
        oracle.cache_clear()
        try:
            code, out, err = run(capsys, command, "--max-degree", "16")
            assert (code, out) == (3, "")
            assert err.startswith("error: the orbit to degree 16 has 72760 classes, ")
            code, out, err = run(capsys, command, "--max-degree", "40", "--output", str(target))
            assert (code, out) == (3, "")
            assert err.startswith("error: the orbit to degree 16 has 72760 classes, ")
            assert not target.exists()
        finally:
            oracle.cache_clear()


class TestCheckMinusOne:
    def test_yes_and_no(self, capsys):
        code, out, _ = run(
            capsys, "check-minus-one", "1;1,1,1,0,0,0,0,0", "2;1,1,1,1,1,1,1,1"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].endswith("yes (word: 0,4,5,6,7)")
        assert lines[1].endswith("no")

    def test_rational_class_is_no(self, capsys):
        # A (-1)-class is integral, so a p/q class is answered, not rejected.
        code, out, err = run(
            capsys, "check-minus-one", "1/2;1/2,0,0,0,0,0,0,0", "1;1,1,1,0,0,0,0,0"
        )
        assert (code, err) == (0, "")
        assert out.splitlines() == [
            "1/2;1/2,0,0,0,0,0,0,0: no", "1;1,1,1,0,0,0,0,0: yes (word: 0,4,5,6,7)"
        ]
        code, out, _ = run(
            capsys, "check-minus-one", "--format", "json", "3/2;1,1/2,1/2,1/2,0,0,0,0"
        )
        assert code == 0
        assert json.loads(out) == {"input": "3/2;1,1/2,1/2,1/2,0,0,0,0", "minus_one": False}


class TestOracleCommand:
    def test_infeasible_with_functional(self, capsys, tmp_path):
        gens = tmp_path / "gens.txt"
        gens.write_text("0;-1,0,0,0,0,0,0,0\n1;1,1,1,0,0,0,0,0\n")
        code, out, _ = run(
            capsys,
            "oracle",
            "--generators",
            str(gens),
            "--format",
            "json",
            "-4;-2,-2,-2,-2,-2,-2,-2,-2",
        )
        assert code == 0
        record = json.loads(out)
        assert record["outcome"] == "infeasible"
        assert len(record["functional"]) == 9

    def test_feasible(self, capsys, tmp_path):
        gens = tmp_path / "gens.txt"
        gens.write_text("1;0,0,0,0,0,0,0,0\n0;-1,0,0,0,0,0,0,0\n")
        code, out, _ = run(
            capsys, "oracle", "--generators", str(gens), "--format", "json", "2;-3,0,0,0,0,0,0,0"
        )
        record = json.loads(out)
        assert code == 0
        assert record["outcome"] == "feasible"
        assert record["coefficients"] == ["2", "3"]
        assert record["terms"] == [
            {"gen": "1;0,0,0,0,0,0,0,0", "coeff": "2"},
            {"gen": "0;-1,0,0,0,0,0,0,0", "coeff": "3"},
        ]

    def test_determinism(self, capsys, tmp_path):
        gens = tmp_path / "gens.txt"
        gens.write_text("1;0,0,0,0,0,0,0,0\n0;-1,0,0,0,0,0,0,0\n")
        outputs = set()
        for _ in range(2):
            _, out, _ = run(
                capsys,
                "oracle",
                "--generators",
                str(gens),
                "--format",
                "json",
                "5;-1,0,0,0,0,0,0,0",
            )
            outputs.add(out)
        assert len(outputs) == 1

    @pytest.mark.parametrize("fmt, target, expected", [
        ("human", "1;-1,0,0,0,0,0,0,0",
         "feasible; nonzero terms: 1*(1;-1,-1,0,0,0,0,0,0), 1*(0;0,1,0,0,0,0,0,0)\n"),
        ("json", "1;-1,0,0,0,0,0,0,0",
         '{"coefficients": ["1", "1"], "outcome": "feasible", "terms": '
         '[{"coeff": "1", "gen": "1;-1,-1,0,0,0,0,0,0"}, {"coeff": "1", "gen": "0;0,1,0,0,0,0,0,0"}]}\n'),
        ("human", "0;-1,0,0,0,0,0,0,0",
         "infeasible; separating functional: 1,1,0,-1,-1,-1,-1,-1,-1\n"),
        ("json", "0;-1,0,0,0,0,0,0,0",
         '{"functional": ["1", "1", "0", "-1", "-1", "-1", "-1", "-1", "-1"], '
         '"outcome": "infeasible"}\n'),
    ], ids=["feasible-human", "feasible-json", "infeasible-human", "infeasible-json"])
    def test_curves(self, capsys, tmp_path, fmt, target, expected):
        gens = tmp_path / "gens.txt"
        gens.write_text("1;-1,-1,0,0,0,0,0,0\n0;0,1,0,0,0,0,0,0\n")
        argv = ("oracle", "--curves", "--generators", str(gens), "--format", fmt, target)
        assert run(capsys, *argv) == (0, expected, "")

    @pytest.mark.parametrize("target, expected", [
        ("3/4;-7/4,1/4,1/4,0,0,0,0,0",
         "feasible; nonzero terms: 2*(0;-1,0,0,0,0,0,0,0), 1/2*(3/2;1/2,1/2,1/2,0,0,0,0,0)\n"),
        ("1;0,0,0,0,0,0,0,1/2", "infeasible; separating functional: 2,-2,-2,-2,-1,-1,-1,-1,-6\n"),
    ], ids=["feasible", "infeasible"])
    def test_rational_generator_file(self, capsys, monkeypatch, target, expected):
        # p/q generators are row-scaled per query, not prepared, and priced by
        # the row kernel; the same file runs through the installed script in CI.
        priced = []
        row_entering = oracle._row_entering

        def counted(price, rows):
            priced.append(len(rows[0]))
            return row_entering(price, rows)

        monkeypatch.setattr(oracle, "_row_entering", counted)
        argv = ("oracle", "--generators", str(DATA / "rational_generators.txt"), target)
        assert run(capsys, *argv) == (0, expected, "")
        assert priced and set(priced) == {4}

    @pytest.mark.parametrize(
        "case", ORACLE_GOLDEN, ids=[f"{c['generators']}-{c['target']}" for c in ORACLE_GOLDEN]
    )
    def test_golden_output(self, capsys, case):
        code, out, _ = run(
            capsys,
            "oracle",
            "--generators",
            str(DATA / case["generators"]),
            "--format",
            "json",
            case["target"],
        )
        assert code == 0
        assert out == case["output"]


class TestParser:
    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_help_and_errors_repeat(self, capsys):
        for _ in range(2):
            with pytest.raises(SystemExit) as info:
                main(["reduce", "--help"])
            assert info.value.code == 0
            assert "--max-steps" in capsys.readouterr().out
            with pytest.raises(SystemExit) as info:
                main(["reduce", "--format", "xml", "1;0,0,0,0,0,0,0,0"])
            assert info.value.code == 2
            assert "invalid choice" in capsys.readouterr().err
            assert run(capsys, "reduce", "3;1,2")[0] == 2


class TestOutputFile:
    def test_output_written(self, capsys, tmp_path):
        target = tmp_path / "orbit.csv"
        code, out, _ = run(capsys, "orbit", "--max-degree", "0", "--output", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("class,degree")


class TestBatchFiles:
    """An --input batch written with --output equals the same classes inline."""

    #: Members of every cone, a p/q class, a (-1)-class and a class in no cone.
    BATCH = [
        "2;1,1,1,1,1,1,1,1",
        "1/2;1/2,0,0,0,0,0,0,0",
        "3;2,2,2,2,1,1,1,0",
        "1;2,0,0,0,0,0,0,0",
        "1;0,0,0,0,0,0,0,0",
    ]

    @pytest.mark.parametrize("fmt", ["human", "json"])
    @pytest.mark.parametrize(
        "command",
        [
            ["reduce"],
            ["classify"],
            ["decompose", "--cone", "nef"],
            ["decompose", "--cone", "eff"],
            ["decompose", "--cone", "mov"],
            ["check-minus-one"],
        ],
        ids=" ".join,
    )
    def test_file_matches_inline(self, capsys, tmp_path, command, fmt):
        source, target = tmp_path / "classes.txt", tmp_path / "out.txt"
        source.write_text("\n".join(self.BATCH) + "\n", encoding="utf-8")
        argv = [*command, "--format", fmt]
        code, inline, _ = run(capsys, *argv, *self.BATCH)
        assert code == 0
        assert len(inline.splitlines()) == len(self.BATCH)
        code, out, err = run(capsys, *argv, "--input", str(source), "--output", str(target))
        assert (code, out, err) == (0, "", "")
        assert target.read_text(encoding="utf-8") == inline
