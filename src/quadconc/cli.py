"""Command-line front end.

Subcommands:
  bound      evaluate tail thresholds at given exponents
  invert     find the exponent carrying a requested deviation
  verify     Monte Carlo check of the bound over an exponent grid
  mgf-check  grid check of the log-MGF envelope inequality

Inputs are JSON documents with exactly one of {"matrix": ..., "b": ...} or
{"a": ..., "b": ...} plus an optional "label" free of control and
line-break characters, or a two-column CSV (header "a,b") for diagonal
forms.  Each output format has one writer, fed column names and rows.
Numbers use the shortest representation that round-trips to the same
double, so outputs and reports are byte-stable for fixed inputs and seeds.

Exit codes: 0 ok, 1 input/IO error, 2 validation or degenerate form,
3 numerical failure (the message carries the residual and/or accuracy the
failing routine reported), 4 verification failure.
"""

import argparse
import csv
import json
import math
import sys
import unicodedata
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .bounds import (
    DiagonalForm,
    form_stats,
    lower_threshold,
    tail_exponent,
    upper_threshold,
)
from .errors import InputError, NumericalError, ValidationError
from .mgf import envelope_grid_check
from .oracle import DEFAULT_CONFIDENCE, empirical_tail, sample
from .spectral import QuadraticForm, reduce as spectral_reduce


@dataclass(frozen=True)
class FormDocument:
    label: Optional[str]
    diagonal: Optional[DiagonalForm]
    quadratic: Optional[QuadraticForm]

    def resolve(self) -> DiagonalForm:
        """Diagonal coefficients, reducing the matrix representation if needed."""
        if self.diagonal is not None:
            return self.diagonal
        return spectral_reduce(self.quadratic).diagonal_form()


def _load_csv(path: Path) -> FormDocument:
    try:
        with path.open(newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise InputError("%s: %s" % (path, exc.strerror or exc))
    if not rows or [c.strip().lower() for c in rows[0]] != ["a", "b"]:
        raise InputError("%s:1: header row must be exactly 'a,b'" % path)
    if len(rows) < 2:
        raise InputError("%s: no coefficient rows" % path)
    a_vals, b_vals = [], []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != 2:
            raise InputError("%s:%d: expected two fields, got %d" % (path, lineno, len(row)))
        try:
            a_vals.append(float(row[0]))
            b_vals.append(float(row[1]))
        except ValueError:
            raise InputError("%s:%d: non-numeric value %r" % (path, lineno, row))
    try:
        diag = DiagonalForm(np.array(a_vals), np.array(b_vals))
    except ValidationError as exc:
        raise InputError("%s: %s" % (path, exc))
    return FormDocument(label=None, diagonal=diag, quadratic=None)


def load_document(path) -> FormDocument:
    path = Path(path)
    if path.suffix.lower() == ".csv":
        return _load_csv(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise InputError("%s: %s" % (path, exc.strerror or exc))
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
    # a control or line-break character would let a label forge output lines
    if label and any(unicodedata.category(ch) in ("Cc", "Zl", "Zp") for ch in label):
        raise InputError("%s: label must not contain control or line-break characters" % path)
    try:
        if "matrix" in obj:
            quadratic = QuadraticForm(
                np.asarray(obj["matrix"], dtype=float), np.asarray(obj["b"], dtype=float)
            )
            return FormDocument(label=label, diagonal=None, quadratic=quadratic)
        diagonal = DiagonalForm(
            np.asarray(obj["a"], dtype=float), np.asarray(obj["b"], dtype=float)
        )
        return FormDocument(label=label, diagonal=diagonal, quadratic=None)
    except (ValidationError, ValueError, TypeError) as exc:
        raise InputError("%s: %s" % (path, exc))


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


def _write(fmt, columns, rows, payload, comments=()):
    """Print the rows as text or csv, or the payload as json."""
    if fmt == "text":
        sys.stdout.write(_render_text(columns, rows, comments))
    elif fmt == "csv":
        sys.stdout.write(_render_csv(columns, rows))
    else:
        sys.stdout.write(_render_json(payload))


def cmd_bound(args) -> int:
    doc = load_document(args.input)
    stats = form_stats(doc.resolve())
    xs = _parse_x_list(args.x)
    one = upper_threshold if args.direction == "upper" else lower_threshold
    columns = ("x", "threshold", "bound")
    rows = [(tb.x, tb.threshold, tb.prob_bound) for tb in (one(stats, x) for x in xs)]
    comments = ([("label", doc.label)] if doc.label else []) + [("direction", args.direction)]
    payload = dict(_header(doc.label, args.direction), rows=_records(columns, rows))
    _write(args.format, columns, rows, payload, comments)
    return 0


def cmd_invert(args) -> int:
    doc = load_document(args.input)
    stats = form_stats(doc.resolve())
    tb = tail_exponent(stats, args.deviation, args.direction)
    columns = ("deviation", "x", "bound", "threshold")
    rows = [(args.deviation, tb.x, tb.prob_bound, tb.threshold)]
    payload = dict(_header(doc.label, args.direction), **_records(columns, rows)[0])
    _write(args.format, columns, rows, payload)
    return 0


def cmd_verify(args) -> int:
    if args.samples < 10**4:
        raise ValidationError("need at least 10^4 samples for a meaningful check")
    if not 0 <= args.seed < 2**64:
        raise ValidationError("seed must fit in an unsigned 64-bit integer")
    xs = _parse_x_grid(args.x_grid)
    doc = load_document(args.input)
    diag = doc.resolve()
    stats = form_stats(diag)
    if stats.u_sq == 0.0:
        raise ValidationError("form is deterministic; nothing to verify")
    one = upper_threshold if args.direction == "upper" else lower_threshold
    tail_bounds = [one(stats, x) for x in xs]
    draws = sample(diag, args.samples, args.seed)
    thresholds = np.array([tb.threshold for tb in tail_bounds])
    estimates = empirical_tail(draws, thresholds, args.direction, seed=args.seed)
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
        _header(doc.label, args.direction),
        n=args.samples,
        seed=args.seed,
        confidence=DEFAULT_CONFIDENCE,
    )
    json_path.write_text(_render_json({"metadata": metadata, "rows": _records(columns, rows)}))
    marked = [(r[0], r[3], r[2], "ok" if r[-1] else "FAIL") for r in rows]
    sys.stdout.write(_render_text(("x", "p_hat", "bound", None), marked))
    all_passed = all(r[-1] for r in rows)
    sys.stdout.write(
        "%s (%d rows, wrote %s and %s)\n"
        % ("all rows ok" if all_passed else "BOUND CONTRADICTED", len(rows), csv_path, json_path)
    )
    return 0 if all_passed else 4


def cmd_mgf_check(args) -> int:
    if args.grid < 1:
        raise InputError("grid size must be a positive integer, got %d" % args.grid)
    doc = load_document(args.input)
    check = envelope_grid_check(doc.resolve(), args.grid)
    sys.stdout.write("grid_size=%d y_max=%s\n" % (check.grid_size, _fmt(check.y_max)))
    sys.stdout.write("max_slack=%s at y=%s\n" % (_fmt(check.max_slack), _fmt(check.worst_y)))
    sys.stdout.write(
        "envelope %s (%d violations)\n" % ("holds" if check.ok else "VIOLATED", check.violations)
    )
    return 0 if check.ok else 4


def build_parser():
    parser = argparse.ArgumentParser(
        prog="quadconc",
        description="Concentration bounds for Gaussian quadratic forms.",
    )
    parser.add_argument("--version", action="version", version="quadconc %s" % __version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_bound = sub.add_parser("bound", help="evaluate tail thresholds")
    p_bound.add_argument("--input", required=True)
    p_bound.add_argument("--x", required=True, help="comma-separated positive exponents")
    p_bound.add_argument("--direction", choices=("upper", "lower"), default="upper")
    p_bound.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p_bound.set_defaults(func=cmd_bound)

    p_invert = sub.add_parser("invert", help="exponent for a requested deviation")
    p_invert.add_argument("--input", required=True)
    p_invert.add_argument("--deviation", required=True, type=float)
    p_invert.add_argument("--direction", choices=("upper", "lower"), default="upper")
    p_invert.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p_invert.set_defaults(func=cmd_invert)

    p_verify = sub.add_parser("verify", help="Monte Carlo check over an exponent grid")
    p_verify.add_argument("--input", required=True)
    p_verify.add_argument("--samples", required=True, type=int)
    p_verify.add_argument("--seed", required=True, type=int)
    p_verify.add_argument("--x-grid", required=True, help="START:STOP:STEP")
    p_verify.add_argument("--direction", choices=("upper", "lower"), default="upper")
    p_verify.add_argument("--out", required=True, help="report path; .csv and .json are written")
    p_verify.set_defaults(func=cmd_verify)

    p_mgf = sub.add_parser("mgf-check", help="grid check of the log-MGF envelope")
    p_mgf.add_argument("--input", required=True)
    p_mgf.add_argument("--grid", type=int, default=256)
    p_mgf.set_defaults(func=cmd_mgf_check)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
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
    except ValidationError as exc:
        print("invalid request: %s" % exc, file=sys.stderr)
        return 2
    except OSError as exc:
        print("io error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
