"""Batch command-line front end for the cone oracles.

Every subcommand reads classes in the canonical text forms (``d;m1,...,m8``
for divisors, ``a;c1,...,c8`` for curves), writes to stdout or ``--output``,
and is deterministic: identical inputs and flags produce byte-identical
structured output.  Exit status: 0 when a verdict was computed (whatever it
is), 2 on input errors, 3 when a cap was hit: the step cap left a line of a
per-line command "unknown" (every line is still written), or `orbit` or
`accumulation` passed the orbit table's scale cap (`--max-degree` 16 and up).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import re
import sys

from .cones import (
    CONE_CURVES,
    CONE_EFF,
    CONE_MOV,
    CONE_NEF,
    Certificate,
    CertificateError,
    NotEffective,
    NotInCurveCone,
    NotMovable,
    NotNef,
    accumulation_report,
    curve_decompose,
    effective_decompose,
    movable_decompose,
    nef_decompose,
)
from .lattice import CurveClass, DivisorClass
from .oracle import Feasible, ScaleExceeded, cone_member, divisor_problem
from .weyl import (
    DEFAULT_MAX_STEPS,
    StepLimitExceeded,
    exceptional_orbit,
    minus_one_certificate,
    to_standard_form,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CAP = 3

# Lets class arguments with a negative leading entry ("-1;0,...,0") parse as
# positionals instead of unknown options; "--" before them works regardless.
_NEGATIVE_TOKEN = re.compile(r"^-\d+$|^-\d*\.\d+$|^-\d+(/\d+)?;")


def _accept_negative_classes(parser: argparse.ArgumentParser) -> None:
    if hasattr(parser, "_negative_number_matcher"):
        parser._negative_number_matcher = _NEGATIVE_TOKEN


def _format_word(word) -> str:
    return ",".join(str(letter) for letter in word)


def _read_lines(path: str) -> list[str]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return [line.strip() for line in handle if line.strip()]
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None


def _gather_inputs(args) -> list[str]:
    texts = list(args.classes)
    if args.input:
        texts.extend(_read_lines(args.input))
    if not texts:
        raise ValueError("no input classes given (pass them inline or via --input FILE)")
    return texts


def _emit(args, text: str) -> None:
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _per_line(args, answer) -> int:
    """Answer every input class, in input order, with one output line each.

    `answer(args, text)` returns the class's JSON record and a thunk for its
    human line, so the JSON format never builds a human line.  A class whose
    reduction hits the step cap gets an "unknown" record with the reason, the
    reason also goes to stderr, and the batch exits 3 once all lines are out.
    """
    lines = []
    status = EXIT_OK
    for text in _gather_inputs(args):
        try:
            record, human = answer(args, text)
        except StepLimitExceeded as exc:
            print(f"error: {exc}", file=sys.stderr)
            status = EXIT_CAP
            record, human = _unknown(text, exc)
        lines.append(json.dumps(record, sort_keys=True) if args.format == "json" else human())
    _emit(args, "\n".join(lines) + "\n")
    return status


def _unknown(text: str, exc: StepLimitExceeded):
    # The record of a class whose verdict the step cap left open; `input` is
    # the text as given.
    record = {"input": text, "unknown": True, "reason": str(exc)}
    return record, lambda: f"{text}: unknown: {exc}"


def _emit_csv(args, header, rows) -> int:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _emit(args, buffer.getvalue())
    return EXIT_OK


# -- per-class answers and subcommand handlers --------------------------------------

def _reduce(args, text: str):
    divisor = DivisorClass.parse(text)
    result = to_standard_form(divisor, max_steps=args.max_steps)
    record = {
        "input": str(divisor),
        "standard": str(result.standard),
        "word": list(result.word),
        "steps": result.steps,
    }
    return record, lambda: (
        f"{divisor} -> standard {result.standard}"
        f" (cremona steps: {result.steps}, word: {_format_word(result.word)})"
    )


#: Classify's verdicts, strongest first; the human line lists them in this order.
_VERDICTS = ("nef", "movable", "effective")


def _classify(args, text: str):
    divisor = DivisorClass.parse(text)
    record: dict = {"input": str(divisor)}
    certificates: dict = {}

    try:
        certificates[CONE_NEF] = nef_decompose(divisor).to_dict()
        record["nef"] = True
    except NotNef as exc:
        record["nef"] = False
        record["nef_witness"] = str(exc.witness)

    for cone, key, decompose, refusal in (
        (CONE_EFF, "effective", effective_decompose, NotEffective),
        (CONE_MOV, "movable", movable_decompose, NotMovable),
    ):
        try:
            certificates[cone] = decompose(divisor, max_steps=args.max_steps).to_dict()
            record[key] = True
        except refusal as exc:
            record[key] = False
            record[f"{key}_reason"] = str(exc)

    record["verdict"] = next((verdict for verdict in _VERDICTS if record[verdict]), "none")
    record["certificates"] = certificates

    def human() -> str:
        flags = " ".join(f"{verdict}={str(record[verdict]).lower()}" for verdict in _VERDICTS)
        return f"{record['input']}: {flags} verdict={record['verdict']}"

    return record, human


def _decompose(args, text: str):
    # cone -> (class parser, decomposer, whether it takes --max-steps).  Built
    # per call, so names rebound at run time (as by the benchmark's tracer) count.
    parse, decompose, capped = {
        CONE_CURVES: (CurveClass.parse, curve_decompose, False),
        CONE_NEF: (DivisorClass.parse, nef_decompose, False),
        CONE_EFF: (DivisorClass.parse, effective_decompose, True),
        CONE_MOV: (DivisorClass.parse, movable_decompose, True),
    }[args.cone]
    try:
        certificate = decompose(parse(text), **({"max_steps": args.max_steps} if capped else {}))
    except (NotNef, NotEffective, NotMovable, NotInCurveCone) as exc:
        reason = str(exc)
        record = {"cone": args.cone, "input": text, "member": False, "reason": reason}
        return record, lambda: f"{text}: not decomposable in {args.cone} cone: {reason}"

    def human() -> str:
        terms = " + ".join(
            f"{coefficient}*({generator})" for generator, coefficient in certificate.terms
        )
        word = _format_word(certificate.word)
        prefix = f"{certificate.target}"
        if word:
            prefix += f" --[word {word}]--> {certificate.reduced_target()}"
        return f"{prefix} = {terms if terms else '0'}"

    return certificate.to_dict(), human


def _check_minus_one(args, text: str):
    divisor = DivisorClass.parse(text)
    # A (-1)-class is integral, so a p/q class is simply not one.
    word = None
    if divisor.is_integral():
        word = minus_one_certificate(divisor, max_steps=args.max_steps)
    record = {"input": str(divisor), "minus_one": word is not None}
    if word is None:
        return record, lambda: f"{divisor}: no"
    record["word"] = list(word)
    return record, lambda: f"{divisor}: yes (word: {_format_word(word)})"


def _cmd_orbit(args) -> int:
    # Orbit classes are integral: the degree is the frame's first entry.
    rows = ([str(e), e.scaled()[0][0]] for e in exceptional_orbit(args.max_degree))
    return _emit_csv(args, ["class", "degree"], rows)


def _cmd_accumulation(args) -> int:
    rows = (
        [degree, str(distance), f"{float(distance):.12g}"]
        for degree, distance in accumulation_report(args.max_degree)
    )
    return _emit_csv(args, ["degree", "max_ray_distance", "approx"], rows)


def _cmd_oracle(args) -> int:
    parse = CurveClass.parse if args.curves else DivisorClass.parse
    target = parse(args.target)
    generators = [parse(line) for line in _read_lines(args.generators)]
    outcome = cone_member(divisor_problem(target, generators))
    if isinstance(outcome, Feasible):
        terms = [
            (generator, coefficient)
            for generator, coefficient in zip(generators, outcome.coefficients)
            if coefficient
        ]
        record = {
            "outcome": "feasible",
            "coefficients": [str(c) for c in outcome.coefficients],
            "terms": [
                {"gen": str(generator), "coeff": str(coefficient)}
                for generator, coefficient in terms
            ],
        }
        human = "feasible; nonzero terms: " + ", ".join(
            f"{coefficient}*({generator})" for generator, coefficient in terms
        )
    else:
        record = {
            "outcome": "infeasible",
            "functional": [str(x) for x in outcome.functional],
        }
        human = "infeasible; separating functional: " + ",".join(
            str(x) for x in outcome.functional
        )
    if args.format == "json":
        _emit(args, json.dumps(record, sort_keys=True) + "\n")
    else:
        _emit(args, human + "\n")
    return EXIT_OK


def _cmd_verify(args) -> int:
    with open(args.certificate, "r", encoding="utf-8") as handle:
        text = handle.read()
    certificate = Certificate.from_json(text)
    try:
        certificate.check()
    except CertificateError as exc:
        _emit(args, f"invalid certificate: {exc}\n")
        return EXIT_OK
    _emit(
        args,
        f"valid {certificate.cone} certificate for {certificate.target}"
        f" ({len(certificate.terms)} terms)\n",
    )
    return EXIT_OK


# -- parser ------------------------------------------------------------------------

def _step_cap(text: str) -> int:
    """A --max-steps value: a non-negative int (argparse turns errors into exit 2)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


@functools.cache  # parse_args leaves the parser unchanged, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blowupcones",
        description=(
            "Exact cone computations on the blowup of P^3 at eight very general points. "
            "Divisor classes are written d;m1,...,m8 (entries may be rationals p/q), "
            "curve classes a;c1,...,c8."
        ),
    )
    _accept_negative_classes(parser)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, answer):
        _accept_negative_classes(p)
        p.add_argument("classes", nargs="*", metavar="CLASS", help="classes inline")
        p.add_argument("--input", help="file with one class per line")
        p.add_argument(
            "--format", choices=("human", "json"), default="human", help="output format"
        )
        p.add_argument("--output", help="write output to this path instead of stdout")
        p.add_argument(
            "--max-steps",
            type=_step_cap,
            default=DEFAULT_MAX_STEPS,
            help="cap on Cremona steps during reduction",
        )
        p.set_defaults(handler=functools.partial(_per_line, answer=answer))

    p = sub.add_parser("reduce", help="reduce classes to standard form with a Weyl word")
    add_common(p, _reduce)

    p = sub.add_parser("classify", help="nef / movable / effective / none verdicts")
    add_common(p, _classify)

    p = sub.add_parser("decompose", help="decompose classes over one cone's generators")
    p.add_argument(
        "--cone",
        required=True,
        choices=(CONE_CURVES, CONE_NEF, CONE_EFF, CONE_MOV),
        help="which cone's generating set to use",
    )
    add_common(p, _decompose)

    p = sub.add_parser(
        "orbit",
        help="CSV of the exceptional orbit up to a degree bound",
        description="Enumerate the Weyl orbit of the exceptional classes. "
        "CSV columns: class (canonical text form), degree.",
    )
    p.add_argument("--max-degree", type=int, required=True)
    p.add_argument("--output", help="write output to this path instead of stdout")
    p.set_defaults(handler=_cmd_orbit)

    p = sub.add_parser(
        "accumulation",
        help="CSV of per-degree max ray distance to the -K/2 ray",
        description="Distances of normalized orbit rays to the ray of the "
        "half-anticanonical class. CSV columns: degree, max_ray_distance "
        "(exact rational), approx (float rendering for plotting).",
    )
    p.add_argument("--max-degree", type=int, required=True)
    p.add_argument("--output", help="write output to this path instead of stdout")
    p.set_defaults(handler=_cmd_accumulation)

    p = sub.add_parser("check-minus-one", help="decide membership in the exceptional orbit")
    add_common(p, _check_minus_one)

    p = sub.add_parser("oracle", help="exact LP membership over generators from a file")
    _accept_negative_classes(p)
    p.add_argument("target", metavar="TARGET", help="target class")
    p.add_argument("--generators", required=True, help="file with one generator per line")
    p.add_argument("--curves", action="store_true", help="parse curve classes instead")
    p.add_argument("--format", choices=("human", "json"), default="human")
    p.add_argument("--output", help="write output to this path instead of stdout")
    p.set_defaults(handler=_cmd_oracle)

    p = sub.add_parser("verify", help="re-check a certificate file by exact arithmetic")
    p.add_argument("certificate", metavar="CERTFILE")
    p.add_argument("--output", help="write output to this path instead of stdout")
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (StepLimitExceeded, ScaleExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (ValueError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
