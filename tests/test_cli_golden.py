"""Byte-identical CLI output over a fixed corpus of classes.

`tests/data/cli_golden.json` holds the exit status, stdout and stderr of
`reduce`, `classify`, `decompose`, `check-minus-one` and `verify` over about
forty classes, in both output formats.  Every byte must repeat.  The corpus
is recorded with

    PYTHONPATH=src python tests/test_cli_golden.py

and only from a commit whose output is known to be right: the point of the
file is that a refactor cannot change what the CLI prints.
"""

import io
import json
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from blowupcones import DivisorClass, StepLimitExceeded, to_standard_form
from blowupcones.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_PATH = Path(__file__).parent / "data" / "cli_golden.json"
#: Placeholder in a `verify` case's argv for the certificate file it reads.
CERT = "{certificate}"


def invoke(case: dict, directory: Path) -> dict:
    """Run one case through `main`; a `verify` case first writes its certificate."""
    argv = case["argv"]
    if "certificate" in case:
        path = directory / "cert.json"
        path.write_text(case["certificate"], encoding="utf-8")
        argv = [str(path) if arg == CERT else arg for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


GOLDEN = json.loads(GOLDEN_PATH.read_text(encoding="utf-8")) if GOLDEN_PATH.exists() else []


@pytest.mark.parametrize("case", GOLDEN, ids=[" ".join(c["argv"]) for c in GOLDEN])
def test_golden_output(tmp_path, case):
    assert invoke(case, tmp_path) == {key: case[key] for key in ("exit", "stdout", "stderr")}


# -- recording the corpus ----------------------------------------------------------

SHALLOW = [
    "2;1,1,1,1,1,1,1,1",
    "0;0,0,0,0,0,0,0,-1",
    "1;0,0,0,0,0,0,0,0",
    "3;2,2,2,2,1,1,1,0",
    "1;1,1,1,0,0,0,0,0",
    "6;3,3,2,2,2,1,1,0",
    "5;3,1,4,1,5,0,2,6",
    "3;1,1,3,1,1,1,1,1",
    "4;2,2,2,2,2,2,2,2",
    "3;3,1,1,1,1,1,1,1",
    "2;2,1,1,1,1,1,0,0",
    "7;4,3,3,2,2,1,1,0",
    "5;4,3,2,0,0,0,0,0",
    # negative entries
    "4;-1,2,3,0,-2,1,1,1",
    "0;-1,-1,0,0,0,0,0,0",
    "2;-3,1,1,0,0,0,0,-1",
    "5;2,2,2,2,2,-1,-1,-1",
    "1;1,1,-1,0,0,0,0,0",
    # not effective
    "-1;0,0,0,0,0,0,0,0",
    "1;2,0,0,0,0,0,0,0",
    "1;1,1,1,1,0,0,0,0",
    "2;2,1,1,1,1,1,1,0",
    "1;1,1,1,1,1,1,1,1",
    "0;1,0,0,0,0,0,0,0",
]

#: p/q classes.  `decompose --cone eff` is not recorded on them: it rejected
#: rational classes when the corpus was first recorded.
RATIONAL = [
    "1/2;1/2,0,0,0,0,0,0,0",
    "3/2;1,1/2,1/2,1/2,0,0,0,0",
    "5/3;2/3,2/3,1/3,1/3,1/3,0,0,-1/3",
    "1;1/2,1/2,1/2,1/2,1/2,1/2,1/2,1/2",
    "-1/2;0,0,0,0,0,0,0,0",
    "7/2;3,3/2,1,1,1,1,1/2,0",
]

CONES = ("nef", "eff", "mov")
FORMATS = ("human", "json")


def _sampled(seed=20250810):
    # Two draws from each of the criterion-4 and criterion-6 samplers, and a
    # criterion-4 draw scaled by 1/3.
    rng = random.Random(seed)
    texts = []
    for _ in range(2):
        texts.append(f"{rng.randint(0, 8)};" + ",".join(str(rng.randint(-8, 8)) for _ in range(8)))
    for _ in range(2):
        d = rng.randint(0, 8)
        texts.append(f"{d};" + ",".join(str(rng.randint(0, d)) for _ in range(8)))
    d = rng.randint(0, 8)
    texts.append(f"{d}/3;" + ",".join(f"{rng.randint(-8, 8)}/3" for _ in range(8)))
    return [str(DivisorClass.parse(text)) for text in texts]


def _deep():
    # Shallow effective and movable classes pushed up as in the benchmark's
    # certify-deep workload, to degrees of about 100-2000.
    sys.path.insert(0, str(ROOT / "bench"))
    from workloads import class_text, push_up

    starts = [
        ((5, (2, 2, 2, 1, 1, 1, 1, 0)), 5),
        ((3, (3, 1, 1, 1, 1, 0, 0, 0)), 10),
        ((4, (2, 2, 2, 2, 2, 2, 0, 0)), 15),
        ((2, (1, 1, 1, 1, 1, 1, 1, 0)), 20),
        ((6, (3, 3, 2, 2, 2, 1, 1, 0)), 30),
    ]
    return [class_text(*push_up(d, m, moves)) for (d, m), moves in starts]


def _diverges(text: str) -> bool:
    try:
        to_standard_form(DivisorClass.parse(text), max_steps=200)
    except StepLimitExceeded:
        return True
    return False


def _cases():
    classes = SHALLOW + RATIONAL + _sampled() + _deep()
    cases = []
    for text in classes:
        # A class with no standard form runs `reduce` under a small cap, not
        # the default one.
        cap = ["--max-steps", "25"] if _diverges(text) else []
        for fmt in FORMATS:
            cases.append(["reduce", "--format", fmt, *cap, text])
            cases.append(["classify", "--format", fmt, text])
            for cone in CONES:
                if cone != "eff" or "/" not in text:
                    cases.append(["decompose", "--cone", cone, "--format", fmt, text])
            cases.append(["check-minus-one", "--format", fmt, text])
    for fmt in FORMATS:
        # A batch in one call, and classes whose reduction the cap cuts short.
        cases.append(["classify", "--format", fmt, *SHALLOW[:6]])
        cases.append(["decompose", "--cone", "curves", "--format", fmt,
                      "1;0,0,0,0,0,0,0,0", "2;-1,-1,-1,-1,0,0,0,0", "1;1,0,0,0,0,0,0,0"])
        for text in ("3;2,2,2,2,1,1,1,0", classes[-1]):
            cases.append(["reduce", "--max-steps", "1", "--format", fmt, text])
            cases.append(["classify", "--max-steps", "1", "--format", fmt, text])
            cases.append(["decompose", "--cone", "eff", "--max-steps", "1", "--format", fmt, text])
            cases.append(["decompose", "--cone", "mov", "--max-steps", "1", "--format", fmt, text])
            cases.append(["check-minus-one", "--max-steps", "1", "--format", fmt, text])
    cases.append(["reduce", "3;1,2"])
    for fmt in FORMATS:
        # A mixed batch: one line is answered, the cap cuts the other short.
        batch = ["--max-steps", "1", "--format", fmt, "1;0,0,0,0,0,0,0,0", "3;2,2,2,2,1,1,1,0"]
        cases += [["reduce", *batch], ["classify", *batch], ["decompose", "--cone", "eff", *batch],
                  ["decompose", "--cone", "mov", *batch], ["check-minus-one", *batch]]
    return [{"argv": argv} for argv in cases]


def _tampered(record: dict):
    # Certificates that parse but must fail the check.
    yield {**record, "terms": record["terms"][1:]}
    first = dict(record["terms"][0])
    first["coeff"] = "-" + first["coeff"]
    yield {**record, "terms": [first, *record["terms"][1:]]}
    if record["cone"] == "eff":
        alien = {"gen": "1;0,0,0,0,0,0,0,0", "coeff": "1"}
        yield {**record, "terms": [alien, *record["terms"]]}
    if record["word"]:
        yield {**record, "word": record["word"][1:]}


def record(directory: Path) -> list[dict]:
    cases = []
    certificates = []
    for case in _cases():
        cases.append({**case, **invoke(case, directory)})
        argv, result = case["argv"], cases[-1]
        if argv[0] == "decompose" and "json" in argv and result["exit"] == 0:
            for line in result["stdout"].splitlines():
                data = json.loads(line)
                if data.get("member", True) and data not in certificates:
                    certificates.append(data)
    for index, data in enumerate(certificates):
        tamper = index % 4 == 0 and data["terms"]
        variants = [data, *(_tampered(data) if tamper else ())]
        for variant in variants:
            case = {"argv": ["verify", CERT],
                    "certificate": json.dumps(variant, sort_keys=True, indent=2)}
            cases.append({**case, **invoke(case, directory)})
    return cases


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        corpus = record(Path(scratch))
    GOLDEN_PATH.write_text(json.dumps(corpus, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(corpus)} cases to {GOLDEN_PATH}")
