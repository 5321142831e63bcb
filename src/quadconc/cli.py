"""Command-line front end.

Subcommands:
  bound      evaluate tail thresholds at given exponents
  invert     find the exponent carrying a requested deviation
  verify     Monte Carlo check of the bound over an exponent grid
  mgf-check  grid check of the log-MGF envelope inequality

Inputs are JSON documents with exactly one of {"matrix": ..., "b": ...} or
{"a": ..., "b": ...} plus an optional "label" free of control,
line-break and surrogate characters, or a two-column CSV (header "a,b")
for diagonal forms.  Each output format has one writer, fed column names
and rows.  Numbers use the shortest representation that round-trips to
the same double, so outputs and reports are byte-stable for fixed inputs
and seeds.  Each command returns its exit code and its whole stdout text,
and main writes that text once: if stdout's encoding cannot hold a
character of it, the call exits 1 with nothing printed.  main returns the
exit code of every argv, and every failure, argparse's refusals included,
is one stderr line.

Exit codes: 0 ok, 1 input/IO error, 2 validation or degenerate form,
3 numerical failure (the message carries the residual and/or accuracy the
failing routine reported), 4 verification failure.
"""

import argparse
import csv
import io
import json
import math
import sys
import unicodedata
from pathlib import Path

from . import __version__
from .bounds import (
    DiagonalForm,
    form_stats,
    lower_threshold,
    tail_exponent,
    upper_threshold,
)
from .errors import InputError, NumericalError, ValidationError

# The numpy-backed routines of verify, mgf-check and matrix documents are the
# package's, which loads them on first access, so bound and invert on a
# diagonal form import no numpy.  Commands look them up on this module when
# they run (PEP 562), so whatever is set on quadconc.cli.<name> is what runs.
# verify streams its draws rather than calling sample, which stays here for
# the code that wraps these names, such as bench/spans.py.
_DEFERRED = {"spectral_reduce": "reduce", "sample": "sample", "empirical_tail": "empirical_tail",
             "envelope_grid_check": "envelope_grid_check"}
_package = sys.modules[__package__]
_cli = sys.modules[__name__]


def __getattr__(name):
    if name not in _DEFERRED:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    return getattr(_package, _DEFERRED[name])


def _csv_rows(path, text):
    """The rows of a CSV document; a row the csv module refuses is an InputError."""
    rows = csv.reader(io.StringIO(text))
    try:
        yield from rows
    except csv.Error as exc:
        raise InputError("%s:%d: %s" % (path, rows.line_num, exc))


def _csv_columns(path, text):
    """{"a": [...], "b": [...]} of a two-column CSV document with header 'a,b'."""
    rows = _csv_rows(path, text)
    if [c.strip().lower() for c in next(rows, [])] != ["a", "b"]:
        raise InputError("%s:1: header row must be exactly 'a,b'" % path)
    a_vals, b_vals = [], []
    for lineno, row in enumerate(rows, start=2):
        if len(row) != 2:
            raise InputError("%s:%d: expected two fields, got %d" % (path, lineno, len(row)))
        try:
            a_vals.append(float(row[0]))
            b_vals.append(float(row[1]))
        except ValueError:
            raise InputError("%s:%d: non-numeric value %r" % (path, lineno, row))
    if not a_vals:
        raise InputError("%s: no coefficient rows" % path)
    return {"a": a_vals, "b": b_vals}


def _json_object(path, text):
    """The JSON document as a dict whose keys and label are checked."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError("%s:%d:%d: %s" % (path, exc.lineno, exc.colno, exc.msg))
    if not isinstance(obj, dict):
        raise InputError("%s: document must be a JSON object" % path)
    unknown = sorted(set(obj) - {"matrix", "a", "b", "label"})
    if unknown:
        raise InputError("%s: unknown keys %s" % (path, ", ".join(unknown)))
    if ("matrix" in obj) == ("a" in obj):
        raise InputError("%s: exactly one of 'matrix' or 'a' is required" % path)
    if "b" not in obj:
        raise InputError("%s: missing required key 'b'" % path)
    label = obj.get("label")
    if label is not None and not isinstance(label, str):
        raise InputError("%s: label must be a string" % path)
    # a control or line-break character would let a label forge output lines,
    # and a lone surrogate (which JSON's \ud800 escapes allow) has no UTF-8
    if label and any(unicodedata.category(ch) in ("Cc", "Zl", "Zp", "Cs") for ch in label):
        raise InputError(
            "%s: label must not contain control, line-break or surrogate characters" % path
        )
    return obj


def load_document(path):
    """(label, DiagonalForm) of a JSON or CSV document; a matrix form is reduced here.

    A malformed document raises InputError; the reduction runs outside that
    net, so its ValidationError and NumericalError keep exit codes 2 and 3.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8-sig")  # UTF-8, with or without a BOM
    except OSError as exc:
        raise InputError("%s: %s" % (path, exc.strerror or exc))
    except UnicodeDecodeError as exc:
        raise InputError("%s: not UTF-8: %s" % (path, exc))
    obj = (_csv_columns if path.suffix.lower() == ".csv" else _json_object)(path, text)
    try:
        if "a" in obj:
            return obj.get("label"), DiagonalForm(obj["a"], obj["b"])
        quadratic = _package.QuadraticForm(obj["matrix"], obj["b"])
    except ValidationError as exc:
        raise InputError("%s: %s" % (path, exc))
    return obj.get("label"), _cli.spectral_reduce(quadratic).diagonal_form()


def _fmt(value) -> str:
    """Shortest decimal string that round-trips to the same double."""
    return repr(float(value))


def _parse_x_list(text):
    xs = []
    for token in text.split(","):
        try:
            xs.append(float(token))
        except ValueError:
            raise ValidationError("invalid x value %r" % token)
    return xs


def _parse_x_grid(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise ValidationError("x-grid must be START:STOP:STEP, got %r" % text)
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise ValidationError("non-numeric x-grid %r" % text)
    if not (math.isfinite(start) and math.isfinite(stop) and math.isfinite(step)):
        raise ValidationError("x-grid values must be finite")
    if start <= 0 or step <= 0 or stop < start:
        raise ValidationError("x-grid needs START > 0, STEP > 0, STOP >= START")
    xs = []
    k = 0
    while True:
        val = start + k * step
        if val > stop + 1e-9 * step:
            break
        xs.append(val)
        k += 1
        if k > 100000:
            raise ValidationError("x-grid has too many points")
    return xs


def _cell(value) -> str:
    """One output field: the shortest round-trip decimal, true/false, or the string itself."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return value if isinstance(value, str) else _fmt(value)


def _render_text(columns, rows, comments=()) -> str:
    """'# key: value' lines, then one line of key=value fields per row.

    A column named None prints its value bare, like verify's ok/FAIL marker.
    """
    lines = ["# %s: %s" % item for item in comments]
    for row in rows:
        fields = [_cell(v) if c is None else "%s=%s" % (c, _cell(v)) for c, v in zip(columns, row)]
        lines.append(" ".join(fields))
    return "".join(line + "\n" for line in lines)


def _render_csv(columns, rows) -> str:
    """A header line of column names, then one comma-separated line per row."""
    lines = [",".join(columns)] + [",".join(map(_cell, row)) for row in rows]
    return "".join(line + "\n" for line in lines)


def _render_json(payload) -> str:
    """The payload indented by two spaces."""
    return json.dumps(payload, indent=2) + "\n"


def _records(columns, rows):
    """Rows as JSON objects of floats, booleans kept as booleans."""
    return [{c: v if isinstance(v, bool) else float(v) for c, v in zip(columns, r)} for r in rows]


def _header(label, direction):
    """The fields every JSON output starts with."""
    return {"tool": "quadconc", "version": __version__, "label": label, "direction": direction}


def _render(fmt, columns, rows, payload, comments=()) -> str:
    """The rows as text or csv, or the payload as json."""
    if fmt == "text":
        return _render_text(columns, rows, comments)
    if fmt == "csv":
        return _render_csv(columns, rows)
    return _render_json(payload)


def cmd_bound(args) -> tuple[int, str]:
    label, form = load_document(args.input)
    stats = form_stats(form)
    xs = _parse_x_list(args.x)
    one = upper_threshold if args.direction == "upper" else lower_threshold
    columns = ("x", "threshold", "bound")
    rows = [(tb.x, tb.threshold, tb.prob_bound) for tb in (one(stats, x) for x in xs)]
    comments = ([("label", label)] if label else []) + [("direction", args.direction)]
    payload = dict(_header(label, args.direction), rows=_records(columns, rows))
    return 0, _render(args.format, columns, rows, payload, comments)


def cmd_invert(args) -> tuple[int, str]:
    label, form = load_document(args.input)
    stats = form_stats(form)
    tb = tail_exponent(stats, args.deviation, args.direction)
    columns = ("deviation", "x", "bound", "threshold")
    rows = [(args.deviation, tb.x, tb.prob_bound, tb.threshold)]
    payload = dict(_header(label, args.direction), **_records(columns, rows)[0])
    return 0, _render(args.format, columns, rows, payload)


def cmd_verify(args) -> tuple[int, str]:
    from .oracle import DEFAULT_CONFIDENCE, _chunks

    if args.samples < 10**4:
        raise ValidationError("need at least 10^4 samples for a meaningful check")
    xs = _parse_x_grid(args.x_grid)
    label, form = load_document(args.input)
    stats = form_stats(form)
    if stats.u == 0.0:
        raise ValidationError("form is deterministic; nothing to verify")
    one = upper_threshold if args.direction == "upper" else lower_threshold
    tail_bounds = [one(stats, x) for x in xs]
    # each chunk of draws is counted, then overwritten by the next one
    _, chunks = _chunks(form, args.samples, args.seed)
    thresholds = [tb.threshold for tb in tail_bounds]
    estimates = _cli.empirical_tail(chunks, thresholds, args.direction)
    rows = [
        (x, tb.threshold, tb.prob_bound, est.p_hat, est.ci_low, est.ci_high,
         est.ci_low <= tb.prob_bound)
        for x, tb, est in zip(xs, tail_bounds, estimates)
    ]
    base = Path(args.out)
    if base.suffix.lower() in (".csv", ".json"):
        base = base.with_suffix("")
    csv_path = base.with_suffix(".csv")
    json_path = base.with_suffix(".json")
    columns = ("x", "threshold", "bound", "p_hat", "ci_low", "ci_high", "pass")
    csv_path.write_text(_render_csv(columns, rows))
    metadata = dict(
        _header(label, args.direction),
        n=args.samples,
        seed=args.seed,
        confidence=DEFAULT_CONFIDENCE,
    )
    json_path.write_text(_render_json({"metadata": metadata, "rows": _records(columns, rows)}))
    marked = [(r[0], r[3], r[2], "ok" if r[-1] else "FAIL") for r in rows]
    all_passed = all(r[-1] for r in rows)
    summary = "%s (%d rows, wrote %s and %s)\n" % (
        "all rows ok" if all_passed else "BOUND CONTRADICTED", len(rows), csv_path, json_path)
    return (0 if all_passed else 4), _render_text(("x", "p_hat", "bound", None), marked) + summary


def cmd_mgf_check(args) -> tuple[int, str]:
    _, form = load_document(args.input)
    check = _cli.envelope_grid_check(form, args.grid)
    return (0 if check.ok else 4), (
        "grid_size=%d y_max=%s\n" % (check.grid_size, _fmt(check.y_max))
        + "max_slack=%s at y=%s\n" % (_fmt(check.max_slack), _fmt(check.worst_y))
        + "envelope %s (%d violations)\n" % ("holds" if check.ok else "VIOLATED", check.violations)
    )


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that refuses a request with ValidationError, not a usage exit."""

    def error(self, message):
        raise ValidationError(message)


def build_parser():
    parser = _Parser(
        prog="quadconc",
        description="Concentration bounds for Gaussian quadratic forms.",
    )
    parser.add_argument("--version", action="version", version="quadconc %s" % __version__)
    sub = parser.add_subparsers(dest="command", required=True)
    commands = []
    for name, func, text in (
        ("bound", cmd_bound, "evaluate tail thresholds"),
        ("invert", cmd_invert, "exponent for a requested deviation"),
        ("verify", cmd_verify, "Monte Carlo check over an exponent grid"),
        ("mgf-check", cmd_mgf_check, "grid check of the log-MGF envelope"),
    ):
        command = sub.add_parser(name, help=text)
        command.set_defaults(func=func)
        command.add_argument("--input", required=True)
        commands.append(command)
    # each option is declared where it falls in its commands' --help order
    p_bound, p_invert, p_verify, p_mgf = commands
    p_bound.add_argument("--x", required=True, help="comma-separated positive exponents")
    p_invert.add_argument("--deviation", required=True, type=float)
    p_verify.add_argument("--samples", required=True, type=int)
    p_verify.add_argument("--seed", required=True, type=int)
    p_verify.add_argument("--x-grid", required=True, help="START:STOP:STEP")
    p_mgf.add_argument("--grid", type=int, default=256)
    for command in (p_bound, p_invert, p_verify):
        command.add_argument("--direction", choices=("upper", "lower"), default="upper")
    p_verify.add_argument("--out", required=True, help="report path; .csv and .json are written")
    for command in (p_bound, p_invert):
        command.add_argument("--format", choices=("text", "csv", "json"), default="text")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        code, text = args.func(args)
        try:
            sys.stdout.write(text)
        except UnicodeEncodeError as exc:  # e.g. a label's character under an ASCII locale
            raise InputError("stdout's encoding %s cannot write %r; set PYTHONIOENCODING=utf-8"
                             % (exc.encoding, exc.object[exc.start : exc.end]))
        return code
    except SystemExit as exc:  # --help and --version, once printed
        return exc.code
    except InputError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except NumericalError as exc:
        message = "numerical failure: %s" % exc
        fields = [
            "%s=%.2g" % (name, value)
            for name, value in (("residual", exc.residual), ("accuracy", exc.accuracy))
            if value is not None
        ]
        if fields:
            message += " (%s)" % ", ".join(fields)
        print(message, file=sys.stderr)
        return 3
    except (ValidationError, MemoryError) as exc:  # MemoryError: e.g. --samples past memory
        print("invalid request: %s" % (str(exc) or "out of memory"), file=sys.stderr)
        return 2
    except (OSError, UnicodeEncodeError) as exc:  # e.g. a path that holds a lone surrogate
        print("io error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
