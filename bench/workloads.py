"""The four benchmark workloads: inputs from the seed, one operation, its checks.

Every workload is a class built from (seed, tiny, tmpdir, root).  The
constructor is the workload's input generation; ``op(idx)`` runs operation
``idx`` and returns (seconds spent in quadconc, list of check failures).
The time covers only the calls into quadconc; checks run after the clock
stops.  Operation ``idx`` always sees the same inputs for a given seed.
A workload whose operations come in kinds of different size (matrix-exact)
also has ``kinds`` and ``kind(idx)``; its timings are summarized per kind.

Library functions are looked up as module attributes at call time
(``spectral.reduce``, ``quadconc.cli.main``) so the traced mode's wrappers,
installed on those attributes, see every call.
"""

import contextlib
import hashlib
import io
import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import quadconc.cli
from quadconc import bounds, mgf, oracle, spectral
from run import parse_importtime

DEFAULT_SEED = 1

# sha256 of report.csv + report.json for DEFAULT_SEED, keyed by (workload,
# tiny).  quadconc promises byte-identical verify reports, so these only
# change when the inputs the benchmark generates change.
EXPECTED_DIGESTS = {
    ("verify-wide", False): "fedfcbf585ea54c32e5e1ff33cef674193210179a24f2af7c47dd1e56b4b4328",
    ("verify-wide", True): "a717403d713aa7b76fda6b731a242f1830ec352dc5fbd2698e0f78d5a798f3cb",
    ("verify-fine", False): "3192ac8be2e3f2751b27cb242bf5a5fe306490f8898050eaf15faf7c6c8d65d7",
    ("verify-fine", True): "ebb586fee16fa056c5432a5940b56ef6563c6cd057f7d647ea0ebd9052f81c49",
}

# relative tolerance of the CLI output checks, relative to the larger of the
# value and the form's deviation scale sqrt(u_sq) so that thresholds near 0
# are not held to an impossible relative standard
CLI_RTOL = 1e-9


def _rng(seed, *key):
    return np.random.default_rng([seed, *key])


def _log_uniform(rng, size=None):
    """Coefficient scales spread log-uniformly over [e^-1, e^1]."""
    return np.exp(rng.uniform(-1.0, 1.0, size))


def _ref_stats(a, b):
    """mean, u_sq, a_plus, a_minus of sum a_k z_k^2 + b_k z_k, computed here."""
    return (
        float(np.sum(a)),
        float(np.sum(a * a) + 0.5 * np.sum(b * b)),
        max(float(np.max(a)), 0.0),
        max(float(-np.min(a)), 0.0),
    )


def _close(got, want, scale):
    return abs(got - want) <= CLI_RTOL * max(abs(want), scale)


class CliCold:
    """One fresh-interpreter ``python -m quadconc`` call per operation.

    With ``importtime`` set (traced runs) each call runs under ``-X
    importtime`` and leaves its cumulative import of quadconc, in seconds,
    in ``last_import_s``.
    """

    name = "cli-cold"
    rss_of_children = True
    work_per_op = 1
    KINDS = ("bound-text", "bound-csv", "bound-json", "invert", "mgf-check")

    def __init__(self, seed, tiny, tmpdir, root):
        self.src = str(Path(root) / "src")
        # seven documents: three diagonal JSON and two diagonal CSV with
        # p <= 16, two p = 8 matrix JSON; 7 and len(KINDS) are coprime, so
        # every (document, call kind) pair comes up
        self.docs = []
        for k in range(7):
            rng = _rng(seed, 0, k)
            scale = _log_uniform(rng)
            if k < 5:
                p = int(rng.integers(1, 17))
                a = rng.choice([-1.0, 1.0], p) * _log_uniform(rng, p) * scale
                b = rng.normal(size=p) * scale
                stats = _ref_stats(a, b)
                if k < 3:
                    path = Path(tmpdir) / ("diag%d.json" % k)
                    doc = {"a": a.tolist(), "b": b.tolist(), "label": "diag-%d" % k}
                    path.write_text(json.dumps(doc))
                else:
                    path = Path(tmpdir) / ("diag%d.csv" % k)
                    rows = "".join("%r,%r\n" % (float(x), float(y)) for x, y in zip(a, b))
                    path.write_text("a,b\n" + rows)
            else:
                m = rng.normal(size=(8, 8)) * scale
                b = rng.normal(size=8) * scale if k == 6 else np.zeros(8)
                s = np.linalg.eigvalsh(0.5 * (m + m.T))
                stats = _ref_stats(s, b)
                path = Path(tmpdir) / ("matrix%d.json" % k)
                path.write_text(json.dumps({"matrix": m.tolist(), "b": b.tolist()}))
            self.docs.append((str(path), stats))
        self.seed = seed
        self._last = None
        self.importtime = False
        self.last_import_s = None

    def _argv(self, idx):
        path, stats = self.docs[idx % len(self.docs)]
        kind = self.KINDS[idx % len(self.KINDS)]
        rng = _rng(self.seed, 1, idx)
        direction = "upper" if rng.integers(2) else "lower"
        if kind == "mgf-check":
            return kind, ["mgf-check", "--input", path, "--grid", "512"], stats, None
        if kind == "invert":
            deviation = float(math.sqrt(stats[1]) * math.exp(rng.uniform(-1.0, 2.0)))
            fmt = ("text", "csv", "json")[int(rng.integers(3))]
            argv = ["invert", "--input", path, "--deviation", repr(deviation),
                    "--direction", direction, "--format", fmt]
            return kind, argv, stats, (direction, fmt, deviation)
        xs = [float(x) for x in np.exp(rng.uniform(math.log(0.1), math.log(10.0), 6))]
        fmt = kind.split("-")[1]
        argv = ["bound", "--input", path, "--x", ",".join(repr(x) for x in xs),
                "--direction", direction, "--format", fmt]
        return kind, argv, stats, (direction, fmt, xs)

    def op(self, idx):
        kind, argv, stats, request = self._argv(idx)
        flags = ["-X", "importtime"] if self.importtime else []
        self.last_import_s = None
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, *flags, "-m", "quadconc", *argv],
                # -m puts the working directory first on sys.path
                capture_output=True, text=True, cwd=self.src, timeout=60,
            )
        except subprocess.TimeoutExpired:
            self._last = (argv, None, "")
            return time.perf_counter() - t0, ["%s: timed out" % " ".join(argv)]
        elapsed = time.perf_counter() - t0
        self._last = (argv, proc.returncode, proc.stdout)
        imports, stderr = parse_importtime(proc.stderr)
        self.last_import_s = imports.get("quadconc")
        if proc.returncode != 0:
            return elapsed, ["%s: exit %d: %s" % (kind, proc.returncode, stderr.strip())]
        try:
            errors = self._check(kind, proc.stdout, stats, request)
        except (ValueError, KeyError, IndexError) as exc:
            errors = ["%s: unparsable output (%s)" % (kind, exc)]
        return elapsed, ["%s: %s" % (kind, e) for e in errors]

    def replay(self, idx):
        """The last operation's argv through quadconc.cli.main in this process."""
        argv, returncode, stdout = self._last
        out = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = quadconc.cli.main(argv)
        elapsed = time.perf_counter() - t0
        if (rc, out.getvalue()) != (returncode, stdout):
            return elapsed, ["replay of %s differs from the cold call" % argv[0]]
        return elapsed, []

    @staticmethod
    def _check(kind, stdout, stats, request):
        mean, u_sq, a_plus, a_minus = stats
        u = math.sqrt(u_sq)
        if kind == "mgf-check":
            lines = stdout.splitlines()
            head = dict(f.split("=") for f in lines[0].split())
            y_max = 10.0 if a_plus == 0.0 else 0.999 / (2.0 * a_plus)
            errors = []
            if head["grid_size"] != "512" or not _close(float(head["y_max"]), y_max, 0.0):
                errors.append("grid %r, expected 512 points to y_max %r" % (lines[0], y_max))
            if lines[2] != "envelope holds (0 violations)":
                errors.append(lines[2])
            return errors
        direction, fmt, arg = request
        sign, extreme = (1.0, a_plus) if direction == "upper" else (-1.0, a_minus)
        if kind == "invert":
            if fmt == "json":
                row = json.loads(stdout)
                x, bound, thr = row["x"], row["bound"], row["threshold"]
            elif fmt == "csv":
                x, bound, thr = (float(v) for v in stdout.splitlines()[1].split(",")[1:])
            else:
                fields = dict(f.split("=") for f in stdout.split())
                x, bound, thr = (float(fields[k]) for k in ("x", "bound", "threshold"))
            errors = []
            # the printed exponent must carry the requested deviation
            carried = 2.0 * u * math.sqrt(x) + 2.0 * extreme * x
            if not _close(carried, arg, 0.0):
                errors.append("x=%r carries deviation %r, asked %r" % (x, carried, arg))
            if not _close(thr, mean + sign * arg, u):
                errors.append("threshold %r, expected %r" % (thr, mean + sign * arg))
            if not _close(bound, math.exp(-x), 0.0):
                errors.append("bound %r, expected exp(-%r)" % (bound, x))
            return errors
        if fmt == "json":
            rows = [(r["x"], r["threshold"], r["bound"]) for r in json.loads(stdout)["rows"]]
        elif fmt == "csv":
            rows = [tuple(float(v) for v in line.split(",")) for line in stdout.splitlines()[1:]]
        else:
            rows = []
            for line in stdout.splitlines():
                if not line.startswith("#"):
                    fields = dict(f.split("=") for f in line.split())
                    rows.append(tuple(float(fields[k]) for k in ("x", "threshold", "bound")))
        if [r[0] for r in rows] != arg:
            return ["printed exponents %r, asked %r" % ([r[0] for r in rows], arg)]
        errors = []
        for x, thr, bound in rows:
            want = mean + sign * (2.0 * u * math.sqrt(x) + 2.0 * extreme * x)
            if not _close(thr, want, u):
                errors.append("x=%r threshold %r, expected %r" % (x, thr, want))
            if not _close(bound, math.exp(-x), 0.0):
                errors.append("x=%r bound %r, expected %r" % (x, bound, math.exp(-x)))
        return errors


class _Verify:
    """One in-process ``quadconc.cli.main(["verify", ...])`` run per operation."""

    rss_of_children = False

    def __init__(self, seed, tiny, tmpdir, root):
        rng = _rng(seed, 2, self.p)
        a, b = self._coefficients(rng)
        self.samples = 10**4 if tiny else self.full_samples
        path = Path(tmpdir) / "form.json"
        path.write_text(json.dumps({"a": a.tolist(), "b": b.tolist(), "label": self.name}))
        self.out = Path(tmpdir) / "report"
        self.argv = [
            "verify", "--input", str(path), "--samples", str(self.samples),
            "--seed", str(int(rng.integers(2**32))), "--x-grid", self.grid,
            "--direction", self.direction, "--out", str(self.out),
        ]
        self.expected = EXPECTED_DIGESTS[(self.name, tiny)] if seed == DEFAULT_SEED else None
        self.digest = None
        self.work_per_op = self.samples

    def op(self, idx):
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            rc = quadconc.cli.main(self.argv)
        elapsed = time.perf_counter() - t0
        if rc != 0:
            return elapsed, ["verify exited %d" % rc]
        digest = hashlib.sha256(
            self.out.with_suffix(".csv").read_bytes() + self.out.with_suffix(".json").read_bytes()
        ).hexdigest()
        if self.digest is None:
            self.digest = digest
        if digest != self.digest:
            return elapsed, ["report digest %s differs from this run's first %s" % (digest, self.digest)]
        if self.expected is not None and digest != self.expected:
            return elapsed, ["report digest %s, recorded %s" % (digest, self.expected)]
        return elapsed, []


class VerifyWide(_Verify):
    name = "verify-wide"
    p = 24
    full_samples = 10**6
    grid = "0.5:4:0.5"
    direction = "upper"

    def _coefficients(self, rng):
        signs = rng.permutation(np.repeat([1.0, -1.0], self.p // 2))
        return signs * _log_uniform(rng, self.p), rng.normal(size=self.p)


class VerifyFine(_Verify):
    name = "verify-fine"
    p = 2
    full_samples = 4 * 10**6
    grid = "0.05:12:0.05"
    direction = "lower"

    def _coefficients(self, rng):
        return np.array([1.0, -1.0]) * _log_uniform(rng, 2), rng.normal(size=2)


class MatrixExact:
    """Reduce, stats, thresholds, exact tail mass and envelope for one matrix form.

    Operations rotate over six kinds of form, p in {24, 48, 96}, each once
    central and once shifted; ``kind(idx)`` names the kind of operation
    ``idx`` so per-kind medians can be taken.
    """

    name = "matrix-exact"
    rss_of_children = False
    work_per_op = 1

    def __init__(self, seed, tiny, tmpdir, root):
        self.seed = seed
        sizes = (16,) if tiny else (24, 48, 96)
        self.kinds = [(p, shifted) for p in sizes for shifted in (False, True)]
        n_x = 2 if tiny else 16
        self.xs = [float(x) for x in np.geomspace(0.25, 8.0, n_x)]

    def kind(self, idx):
        p, shifted = self.kinds[idx % len(self.kinds)]
        return "p%d-%s" % (p, "shifted" if shifted else "central")

    def _form(self, idx):
        p, shifted = self.kinds[idx % len(self.kinds)]
        rng = _rng(self.seed, 3, idx, p, shifted)
        scale = _log_uniform(rng)
        m = rng.normal(size=(p, p)) * scale
        b = rng.normal(size=p) * scale if shifted else np.zeros(p)
        return m, b

    def op(self, idx):
        m, b = self._form(idx)
        t0 = time.perf_counter()
        red = spectral.reduce(spectral.QuadraticForm(m, b))
        diag = red.diagonal_form()
        stats = bounds.form_stats(diag)
        masses = []
        for x in self.xs:
            for one, upper in ((bounds.upper_threshold, True), (bounds.lower_threshold, False)):
                t = one(stats, x).threshold
                try:
                    cdf = oracle.cdf_cf(diag, t)
                    masses.append((x, t, 1.0 - cdf if upper else cdf, None))
                except Exception as exc:  # any cdf_cf failure is a failed check
                    masses.append((x, t, None, "%s: %s" % (type(exc).__name__, exc)))
        envelope = mgf.envelope_grid_check(diag, 4096)
        elapsed = time.perf_counter() - t0

        errors = []
        p = m.shape[0]
        s = 0.5 * (m + m.T)
        ref = np.linalg.eigvalsh(s)[::-1]
        gap = float(np.max(np.abs(red.eigenvalues - ref)))
        if not gap <= 1e-12 * float(np.linalg.norm(s)):
            errors.append("p=%d eigenvalues off by %.3e" % (p, gap))
        for x, t, mass, failure in masses:
            if failure is not None:
                errors.append("p=%d cdf_cf(t=%r): %s" % (p, t, failure))
            elif not mass <= math.exp(-x) + 1e-6:
                errors.append("p=%d x=%r tail mass %r > exp(-x)" % (p, x, mass))
        if envelope.violations:
            errors.append("p=%d envelope violated at %d points" % (p, envelope.violations))
        return elapsed, errors


WORKLOADS = {w.name: w for w in (CliCold, VerifyWide, VerifyFine, MatrixExact)}
