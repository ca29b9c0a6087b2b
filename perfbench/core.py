"""Harness machinery shared by the workloads: spans, the closed-loop op
runner with output checks, the speed calibration, and the statistics the
result line reports.

Only the standard library is used here, so run.py can import it before
numpy or hstab are loaded.
"""

from __future__ import annotations

import bisect
import math
import subprocess
import time
from fractions import Fraction

# float outputs must match the recorded reference to this relative error
RTOL = 1e-8
# least-squares fits (fit_b0_b1, laurent_fit) get more room
FIT_RTOL = 1e-6

# tail percentiles the harness may report; it takes the highest one that
# leaves at least ten samples beyond it
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

# Speed calibration.  The CPU a run gets from a shared host drifts by tens of
# percent over seconds to minutes, for CPU time as much as for wall time.  A
# fixed pure-Python kernel is timed between ops (at most every CAL_EVERY_S)
# and every reported time is scaled by CAL_REF_S over the median time of the
# 2 * CAL_NEAR kernel samples nearest to it, so times read as on a host where
# the kernel takes CAL_REF_S.  hstab's code does not run in the kernel, so a
# change to hstab moves scaled and raw times alike; the raw ones are printed
# on the summary lines.  The kernel mixes integer and Fraction arithmetic:
# on a 2-core Xeon VM that tracked hstab's ops better than either alone.
CAL_REF_S = 0.0035  # about the kernel's time on that VM
CAL_EVERY_S = 0.2
CAL_NEAR = 3


def calibration_sample() -> float:
    """Seconds the fixed calibration kernel takes now."""
    t0 = time.perf_counter()
    s = 0
    for i in range(20_000):
        s += i * i % 7
    q = Fraction(0)
    for i in range(1, 400):
        q += Fraction(i, i + 7)
    return time.perf_counter() - t0


def git_sha(root) -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "not a git checkout"


class Mismatch(Exception):
    """An output that disagrees with its reference or breaks an identity."""


class KnownFailure(Mismatch):
    """An op failing in exactly the way a known issue makes it fail; any
    other failure of the same op is unexpected."""

    def __init__(self, issue, detail):
        super().__init__(detail)
        self.issue = issue


class Tracer:
    """Spans around the harness's calls into hstab's public functions.

    A span is (name, op id, start, end, work): the op id ties the spans of
    one operation together, and work holds counts computed from outside the
    program (labelled as computed where they are reported).  Disabled, a
    call costs one attribute test.
    """

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.spans = []
        self.op_id = 0

    def call(self, span, fn, /, *args, work=None, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        t0 = time.perf_counter()
        out = None
        try:
            out = fn(*args, **kwargs)
            return out
        finally:
            t1 = time.perf_counter()
            counts = work(out) if (work is not None and out is not None) else None
            self.spans.append((span, self.op_id, t0, t1, counts))

    def record(self, name, seconds, counts=None):
        """A span measured elsewhere (a child process)."""
        if self.enabled:
            now = time.perf_counter()
            self.spans.append((name, self.op_id, now - seconds, now, counts))


class Checker:
    """Comparisons against reference values; tracks the largest relative
    deviation of any checked float."""

    def __init__(self):
        self.max_rel_err = 0.0

    def exact(self, what, value, ref):
        if isinstance(ref, str) and not isinstance(value, str):
            ok = Fraction(value) == Fraction(ref)
        else:
            ok = value == ref
        if not ok:
            raise Mismatch(f"{what}: {value!r} != reference {ref!r}")

    def close(self, what, value, ref, rtol=RTOL):
        """Relative deviation of a float, or of a (nested) list of floats
        scaled by the largest reference entry."""
        vals = _flat(value)
        refs = _flat(ref)
        if len(vals) != len(refs):
            raise Mismatch(f"{what}: shape differs from reference")
        finite = [abs(r) for r in refs if math.isfinite(r)]
        scale = max(finite, default=0.0) or 1.0
        worst = 0.0
        for v, r in zip(vals, refs):
            if v == r:
                continue
            if not (math.isfinite(v) and math.isfinite(r)):
                raise Mismatch(f"{what}: {v!r} != reference {r!r}")
            worst = max(worst, abs(v - r) / scale)
        self.max_rel_err = max(self.max_rel_err, worst)
        if worst > rtol:
            raise Mismatch(f"{what}: relative error {worst:.3g} > {rtol:g}")

    @staticmethod
    def require(what, ok):
        if not ok:
            raise Mismatch(what)


def _flat(x):
    if isinstance(x, (list, tuple)):
        return [v for item in x for v in _flat(item)]
    if hasattr(x, "tolist"):
        return _flat(x.tolist())
    return [float(x)]


class Runner:
    """Closed loop, one caller: each op starts when the previous one and
    its check have finished.  An op fails when it raises, reports failure
    (non-zero exit, non-converged optimizer) or fails its output check; the
    failure is known only when the check raises KnownFailure."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.checker = Checker()
        self.cycle = 0  # set by the caller; recorded with each sample
        self.samples = []  # (op name, cycle, seconds, passed)
        self.failures = []  # (op name, reason, known issue or None)
        self.calib = []  # (index of the next sample, calibration seconds)
        self._next_cal = 0.0

    def calibrate(self):
        if time.perf_counter() >= self._next_cal:
            self.calib.append((len(self.samples), calibration_sample()))
            self._next_cal = time.perf_counter() + CAL_EVERY_S

    def op(self, name, fn, check):
        self.calibrate()
        self.tracer.op_id += 1
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception as exc:  # every raised error is a failed op
            self._done(name, t0, f"{type(exc).__name__}: {exc}", None)
            return
        seconds = time.perf_counter() - t0
        try:
            check(out)
        except KnownFailure as exc:
            self._done(name, t0, str(exc), exc.issue, seconds)
            return
        except Mismatch as exc:
            self._done(name, t0, str(exc), None, seconds)
            return
        except Exception as exc:  # a malformed output is a failed check
            self._done(name, t0, f"check: {type(exc).__name__}: {exc}", None, seconds)
            return
        self.samples.append((name, self.cycle, seconds, True))

    def _done(self, name, t0, reason, known, seconds=None):
        if seconds is None:
            seconds = time.perf_counter() - t0
        self.samples.append((name, self.cycle, seconds, False))
        self.failures.append((name, reason[:300], known))


def speed_factors(n: int, calib) -> list:
    """For each of n samples, CAL_REF_S over the median of the CAL_NEAR
    calibration samples taken before it and the CAL_NEAR after it (calib
    holds (sample index, seconds) in order of index)."""
    at = [i for i, _s in calib]
    out = []
    for i in range(n):
        p = bisect.bisect_right(at, i)
        near = [s for _i, s in calib[max(0, p - CAL_NEAR):p + CAL_NEAR]]
        out.append(CAL_REF_S / median(near))
    return out


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least ten of n samples beyond it;
    the maximum (100) when there are too few samples for any."""
    for q in TAIL_LADDER:
        if n * (1.0 - q / 100.0) >= 10.0:
            return q
    return 100.0


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (the 'inclusive' definition)."""
    xs = sorted(values)
    if len(xs) == 1:
        return xs[0]
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)
