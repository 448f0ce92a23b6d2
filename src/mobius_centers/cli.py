"""
Command-line front end.

Commands: dim, classes, basis, table, verify, conjecture.  All outputs are
deterministic for a fixed configuration.  Exit codes: 0 on success, 1 on a
verification failure, 2 on a usage error.
"""

from __future__ import annotations

import argparse
import errno
import io
import math
import os
import random
import sys
from itertools import chain
from json import JSONEncoder
from json.encoder import encode_basestring_ascii

from . import linalg
from .algebra import (
    NILCOXETER,
    ZERO_HECKE,
    AlgebraParams,
    basis_element,
    check_defining_relations,
    element_to_json,
    gram_matrix,
    involve,
    mul,
    parse_algebra,
    preset_name,
    trace,
)
from .centers import (
    center,
    center_dim,
    conjecture_report_to_json,
    dual_center_basis,
    multiplication_table,
    nc_center_basis,
    twisted_center,
    verify_hn_conjecture,
)
from .linalg import format_rational
from .partitions import center_dim_formula, expected_class_count, partitions
from .perm import MAX_N, reduced_word, symmetric_group
from .quotients import (
    UnsupportedParamsError,
    class_census,
    classes_to_json,
    cycle_type,
    mobius_classes,
    quotient_dim,
)

SUITES = ("relations", "frobenius", "duality", "census", "all")

# A fixed seed keeps repeated runs byte-identical.
_FROBENIUS_PAIR_SEED = 12345
_RANDOM_PAIR_COUNT = 10_000

# The dense n! x n! Gram matrix is feasible up to n = 6 (518,400 entries);
# at n = 7 it would hold 25.4 M, about 200 MB of list slots alone.
_MAX_GRAM_ENTRIES = math.factorial(6) ** 2

# Each command builds a table of one object per permutation, plus what it
# computes on it: at n = 8 (40,320) `verify --suite relations` peaks at
# 29 MB of RSS, the Nilcoxeter `basis` at 32 MB, `classes` at 31 MB, `dim`
# at 23 MB and `verify --suite duality` at 60 MB; n = 9 would need nine
# times as much.
_MAX_TABLE_ORDER = math.factorial(8)


class UsageError(Exception):
    pass


def _dotted(word) -> str:
    return ".".join(str(i) for i in word) or "e"


def _check_gram_size(n: int) -> None:
    """Refuse, before any table is built, an n whose dense Gram matrix is
    beyond the n = 6 size."""
    entries = math.factorial(n) ** 2
    if entries > _MAX_GRAM_ENTRIES:
        raise UsageError(
            f"-n {n} needs the dense {n}! x {n}! Gram matrix ({entries:,} entries); "
            f"at most {_MAX_GRAM_ENTRIES:,} (n <= 6) are supported"
        )


def _check_table_size(n: int) -> None:
    """Refuse, before any table is built, an n whose permutation table is
    beyond the n = 8 size."""
    order = math.factorial(n)
    if order > _MAX_TABLE_ORDER:
        raise UsageError(
            f"-n {n} needs the table of all {n}! = {order:,} permutations; "
            f"at most {_MAX_TABLE_ORDER:,} (n <= 8) are supported"
        )


def _algebra_label(params: AlgebraParams) -> str:
    name = preset_name(params)
    if name is not None:
        return name
    return f"{format_rational(params.a)},{format_rational(params.b)}"


# --- commands ----------------------------------------------------------------


def _cmd_dim(args) -> tuple[dict, int]:
    params = args.algebra
    n = args.n
    _check_table_size(n)
    formula = center_dim_formula(n)
    formula_applies = params in (NILCOXETER, ZERO_HECKE)
    payload = {
        "n": n,
        "algebra": _algebra_label(params),
        "formula": formula,
        "formula_applies": formula_applies,
    }
    rank_route = quotient_dim(n, params, twisted=True)
    commutant_route = center_dim(n, params)
    agree = rank_route == commutant_route and (not formula_applies or formula == rank_route)
    payload.update(
        {
            "twisted_quotient_rank": rank_route,
            "commutant_rank": commutant_route,
            "agree": agree,
        }
    )
    return payload, 0 if agree else 1


def _cmd_classes(args) -> tuple[dict, int]:
    _check_table_size(args.n)
    try:
        classes = mobius_classes(args.n, args.algebra)
    except UnsupportedParamsError as exc:
        raise UsageError(str(exc)) from exc
    return classes_to_json(classes), 0


def _center_basis_for(args):
    if args.algebra == NILCOXETER:
        _check_table_size(args.n)
        return nc_center_basis(args.n)
    if args.algebra == ZERO_HECKE:
        _check_gram_size(args.n)
        return dual_center_basis(args.n, args.algebra)
    raise UsageError(
        "center basis construction is available for the nilcoxeter and 0-hecke presets"
    )


def _cmd_basis(args) -> tuple[dict, int]:
    basis = _center_basis_for(args)
    return {
        "n": basis.n,
        "algebra": _algebra_label(basis.params),
        "elements": [
            {"label": list(reduced_word(lab)), "element": element_to_json(el)}
            for lab, el in zip(basis.labels, basis.elements)
        ],
    }, 0


def _cmd_table(args) -> tuple[dict, int]:
    basis = _center_basis_for(args)
    table = multiplication_table(basis)
    return {
        "n": basis.n,
        "algebra": _algebra_label(basis.params),
        "labels": [list(reduced_word(lab)) for lab in basis.labels],
        "table": [
            [[format_rational(c) for c in cell] for cell in row] for row in table
        ],
    }, 0


def _cmd_conjecture(args) -> tuple[dict, int]:
    if args.algebra != ZERO_HECKE:
        raise UsageError("the conjecture report is specific to the 0-hecke algebra")
    _check_gram_size(args.n)
    report = verify_hn_conjecture(args.n)
    return conjecture_report_to_json(report), 0


# --- verification suites ------------------------------------------------------


def _suite_relations(n: int, params: AlgebraParams) -> list[dict]:
    report = check_defining_relations(n, params)
    return [{"name": c.name, "passed": c.passed} for c in report.checks]


def _suite_frobenius(n: int, params: AlgebraParams) -> list[dict]:
    table = symmetric_group(n)
    order = table.order
    gram = ({v: c for v, c in enumerate(row) if c} for row in gram_matrix(n, params))
    checks = [
        {
            "name": f"gram matrix has full rank {order}",
            "passed": linalg.rank(gram, order) == order,
        }
    ]
    elements = [basis_element(params, w) for w in table.perms]
    if order * order <= 600:
        pairs = [(x, y) for x in elements for y in elements]
        label = "trace(xy) = trace(y f(x)) on all basis pairs"
    else:
        rng = random.Random(_FROBENIUS_PAIR_SEED)
        pairs = [
            (elements[rng.randrange(order)], elements[rng.randrange(order)])
            for _ in range(_RANDOM_PAIR_COUNT)
        ]
        label = f"trace(xy) = trace(y f(x)) on {_RANDOM_PAIR_COUNT} random pairs"
    ok = all(trace(mul(x, y)) == trace(mul(y, involve(x))) for x, y in pairs)
    checks.append({"name": label, "passed": ok})
    return checks


def _suite_duality(n: int, params: AlgebraParams) -> list[dict]:
    return [
        {
            "name": "dim center = n! - dim twisted commutator span",
            "passed": center(n, params).dim == quotient_dim(n, params, twisted=True),
        },
        {
            "name": "dim twisted center = n! - dim commutator span",
            "passed": twisted_center(n, params).dim == quotient_dim(n, params, twisted=False),
        },
    ]


def _suite_census(n: int, params: AlgebraParams) -> list[dict]:
    census = class_census(n, params)
    checks = []
    for stats in partitions(n):
        expected = expected_class_count(stats)
        got = census.get(stats.parts, 0)
        checks.append(
            {
                "name": f"classes of cycle type {_dotted(stats.parts)}: {got} (expected {expected})",
                "passed": got == expected,
            }
        )
    prime = next(
        c
        for c in mobius_classes(n, params).classes
        if cycle_type(next(iter(c))) == (n,)
    )
    want = (n - 1) // 2
    checks.append(
        {
            "name": f"prime class members all have {want} crossings",
            "passed": all(w.length == want for w in prime),
        }
    )
    return checks


def _cmd_verify(args) -> tuple[dict, int]:
    n, params = args.n, args.algebra
    suites = {
        "relations": _suite_relations,
        "frobenius": _suite_frobenius,
        "duality": _suite_duality,
        "census": _suite_census,
    }
    if args.suite == "all":
        names = ["relations", "frobenius", "duality"]
        if params == NILCOXETER:
            names.append("census")
    else:
        names = [args.suite]
    if "frobenius" in names:
        _check_gram_size(n)
    _check_table_size(n)
    checks = []
    try:
        for name in names:
            for check in suites[name](n, params):
                checks.append({"suite": name, **check})
    except UnsupportedParamsError as exc:
        raise UsageError(str(exc)) from exc
    passed = all(c["passed"] for c in checks)
    payload = {
        "n": n,
        "algebra": _algebra_label(params),
        "suite": args.suite,
        "checks": checks,
        "passed": passed,
    }
    return payload, 0 if passed else 1


# --- rendering ----------------------------------------------------------------


# Characters per write.  Every part held is also a str object, so a budget
# of 2**18 took `basis --algebra 0-hecke -n 6`, whose parts are short, to a
# peak 0.5 MB higher.
_JSON_CHUNK_CHARS = 1 << 16


def _write_json(payload: dict, handle) -> None:
    """Write ``json.dumps(payload, indent=2)`` plus a newline, a chunk of
    about ``_JSON_CHUNK_CHARS`` characters at a time, so that neither the
    whole text nor the list of its parts is held.  ``json.dumps`` falls back
    to its pure-Python encoder whenever it indents; this writes the same
    layout directly, a list of ints with one join and a list of such lists
    (the word lists of a class report) through the C encoder a slice at a
    time."""
    parts: list[str] = []
    size = 0

    def emit(part: str) -> None:
        nonlocal size
        parts.append(part)
        size += len(part)
        if size >= _JSON_CHUNK_CHARS:
            handle.write("".join(parts))
            parts.clear()
            size = 0

    _json_parts(payload, "\n", emit)
    parts.append("\n")
    handle.write("".join(parts))


def _json_parts(o, newline: str, emit) -> None:
    # newline is "\n" plus the indentation of the line that holds o; emit
    # takes each part of the text in order
    if isinstance(o, list):
        if not o:
            emit("[]")
            return
        inner = newline + "  "
        if {*map(type, o)} == {int}:
            emit("[" + inner + ("," + inner).join(map(int.__repr__, o)) + newline + "]")
            return
        if (
            {*map(type, o)} == {list}
            and all(o)
            and {*map(type, chain.from_iterable(o))} == {int}
        ):
            # 256 inner lists per call.  Unindented, the C encoder puts
            # deeper (each int's line) after every comma; the brackets
            # between two inner lists then go on lines of their own.  An
            # empty inner list would need "[]", and lists of ints hold no
            # cycle to check for.
            deeper = inner + "  "
            encode = JSONEncoder(check_circular=False, separators=("," + deeper, ":")).encode
            between = inner + "]," + inner + "[" + deeper
            sep = "[" + inner + "[" + deeper
            for start in range(0, len(o), 256):
                text = encode(o[start : start + 256])
                emit(sep + text[2:-2].replace("]," + deeper + "[", between))
                sep = between
            emit(inner + "]" + newline + "]")
            return
        sep = "[" + inner
        for x in o:
            emit(sep)
            _json_parts(x, inner, emit)
            sep = "," + inner
        emit(newline + "]")
    elif isinstance(o, dict):
        if not o:
            emit("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for k, v in o.items():
            if not isinstance(k, str):
                raise TypeError(f"keys must be str, not {type(k).__name__}")
            emit(sep + encode_basestring_ascii(k) + ": ")
            _json_parts(v, inner, emit)
            sep = "," + inner
        emit(newline + "}")
    elif isinstance(o, str):
        emit(encode_basestring_ascii(o))
    elif o is None:
        emit("null")
    elif o is True:
        emit("true")
    elif o is False:
        emit("false")
    elif type(o) is int:
        emit(int.__repr__(o))
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _terms_text(terms) -> str:
    """Terms of an element as space-separated ``word:coeff`` pairs."""
    return " ".join(f"{_dotted(t['word'])}:{t['coeff']}" for t in terms)


def _render_text(command: str, payload: dict) -> str:
    lines = []
    if command == "dim":
        lines.append(f"formula          {payload['formula']}"
                     + ("" if payload["formula_applies"] else "  (not a theorem for this algebra)"))
        lines.append(f"twisted-quotient {payload['twisted_quotient_rank']}")
        lines.append(f"commutant        {payload['commutant_rank']}")
        lines.append(f"agree            {'yes' if payload['agree'] else 'NO'}")
    elif command == "classes":
        for entry in payload["classes"]:
            extra = ""
            if "cycle_type" in entry:
                extra = (
                    f" cycle_type={_dotted(entry['cycle_type'])}"
                    f" length={entry['length']}"
                )
            members = " ".join(_dotted(w) for w in entry["members"])
            lines.append(
                f"class rep={_dotted(entry['representative'])}"
                f" size={len(entry['members'])}{extra} members: {members}"
            )
        zero = payload["zero_class"]
        if zero:
            lines.append("zero class: " + " ".join(_dotted(w) for w in zero))
    elif command == "basis":
        for entry in payload["elements"]:
            terms = _terms_text(entry["element"]["terms"])
            lines.append(f"z[{_dotted(entry['label'])}] = {terms}")
    elif command == "table":
        labels = payload["labels"]
        for i, row in enumerate(payload["table"]):
            cells = " ".join("(" + ",".join(cell) + ")" for cell in row)
            lines.append(f"z[{_dotted(labels[i])}] * row: {cells}")
    elif command == "verify":
        for check in payload["checks"]:
            status = "ok  " if check["passed"] else "FAIL"
            lines.append(f"{status} [{check['suite']}] {check['name']}")
        lines.append("passed" if payload["passed"] else "FAILED")
    elif command == "conjecture":
        for entry in payload["classes"]:
            coeffs = _terms_text(entry["complement_coefficients"])
            lines.append(
                f"class rep={_dotted(entry['representative'])}"
                f" support_in_complements={entry['support_in_complements']}"
                f" integer_coefficients={entry['integer_coefficients']}"
                f" complements: {coeffs}"
            )
        lines.append(
            "unique complement per crossing number: "
            f"{payload['unique_complement_per_crossing_number']}"
        )
    return "\n".join(lines) + "\n"


def _render_csv(command: str, payload: dict) -> str:
    import csv  # here, so that JSON and text reports do not import it

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if command == "dim":
        writer.writerow(["n", "algebra", "formula", "twisted_quotient_rank", "commutant_rank", "agree"])
        writer.writerow(
            [
                payload["n"],
                payload["algebra"],
                payload["formula"],
                payload["twisted_quotient_rank"],
                payload["commutant_rank"],
                payload["agree"],
            ]
        )
    elif command == "classes":
        writer.writerow(["representative", "size", "cycle_type", "length", "members"])
        for entry in payload["classes"]:
            writer.writerow(
                [
                    _dotted(entry["representative"]),
                    len(entry["members"]),
                    _dotted(entry.get("cycle_type", [])),
                    entry.get("length", ""),
                    " ".join(_dotted(w) for w in entry["members"]),
                ]
            )
        if payload["zero_class"]:
            writer.writerow(
                ["zero", len(payload["zero_class"]), "", "",
                 " ".join(_dotted(w) for w in payload["zero_class"])]
            )
    elif command == "basis":
        writer.writerow(["label", "terms"])
        for entry in payload["elements"]:
            writer.writerow([_dotted(entry["label"]), _terms_text(entry["element"]["terms"])])
    elif command == "table":
        labels = [_dotted(lab) for lab in payload["labels"]]
        writer.writerow(["left", "right"] + labels)
        for i, row in enumerate(payload["table"]):
            for j, cell in enumerate(row):
                writer.writerow([labels[i], labels[j]] + list(cell))
    elif command == "verify":
        writer.writerow(["suite", "check", "passed"])
        for check in payload["checks"]:
            writer.writerow([check["suite"], check["name"], check["passed"]])
    elif command == "conjecture":
        writer.writerow(
            ["representative", "support_in_complements", "integer_coefficients", "complement_coefficients"]
        )
        for entry in payload["classes"]:
            coeffs = _terms_text(entry["complement_coefficients"])
            writer.writerow(
                [
                    _dotted(entry["representative"]),
                    entry["support_in_complements"],
                    entry["integer_coefficients"],
                    coeffs,
                ]
            )
    return buf.getvalue()


def _write_report(args, payload: dict, handle) -> None:
    if args.format == "json":
        _write_json(payload, handle)
    elif args.format == "text":
        handle.write(_render_text(args.command, payload))
    else:
        handle.write(_render_csv(args.command, payload))


# --- entry point ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mobius-centers",
        description="Exact centers of Nilcoxeter and 0-Hecke algebras on the Mobius band",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    command_help = {
        "dim": "center dimension by formula, twisted-quotient rank and commutant rank",
        "classes": "Mobius-band equivalence classes of basis elements",
        "basis": "center basis (closed form for nilcoxeter, trace-dual for 0-hecke)",
        "table": "multiplication table of the center basis",
        "verify": "run a verification suite",
        "conjecture": "0-Hecke dual-basis support report",
    }
    for name, help_text in command_help.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument(
            "--algebra",
            type=parse_algebra,
            default=ZERO_HECKE if name == "conjecture" else None,
            required=name != "conjecture",
            help="nilcoxeter | 0-hecke | group | a,b",
        )
        p.add_argument("-n", type=int, required=True, help="number of strands")
        p.add_argument("--format", choices=("json", "csv", "text"), default="text")
        p.add_argument("--output", default=None, help="write the report to a file")
        if name == "verify":
            p.add_argument("--suite", choices=SUITES, required=True)
    return parser


_COMMANDS = {
    "dim": _cmd_dim,
    "classes": _cmd_classes,
    "basis": _cmd_basis,
    "table": _cmd_table,
    "verify": _cmd_verify,
    "conjecture": _cmd_conjecture,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not 1 <= args.n <= MAX_N:
        print(f"error: -n must be in 1..{MAX_N}", file=sys.stderr)
        return 2
    try:
        if args.output:
            # the error open() would raise, before any work is done
            missing = not os.path.isdir(os.path.dirname(args.output) or os.curdir)
            if missing or os.path.isdir(args.output):
                code = errno.ENOENT if missing else errno.EISDIR
                error = OSError(code, os.strerror(code), args.output)
                raise UsageError(f"cannot write --output: {error}")
        payload, status = _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.output:
        try:
            handle = open(args.output, "w", encoding="utf-8")
        except OSError as exc:
            print(f"error: cannot write --output: {exc}", file=sys.stderr)
            return 2
        with handle:
            _write_report(args, payload, handle)
    else:
        _write_report(args, payload, sys.stdout)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
