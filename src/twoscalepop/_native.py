"""Compiled stepping loop for the threestage maps, built on first use.

``_native.c`` steps H_k, its limit H, the reduced map and the isolated-patch
map with the same IEEE operations, in the same order, as their Python
float kernels, so both give the same bytes.  Every orbit ``aggregation``
steps -- ``iterate_tail``, ``iterate`` and the ball harnesses (trapping,
attraction, instability, the convergence table) -- runs through it when
the map carries a ``.native`` spec (a ``Spec``) and the library loads;
otherwise, and as the test oracle, the Python kernel steps.

``iterate_tail``'s whole repeat schedule up to the tail is one call to the
loop (``Stepper.orbit``), as is a batch of starts (``Stepper.many``).
A checked run stops at the first state outside the admissible set: finite,
nonnegative, coordinates at most ``BOX_BOUND``.  The C loop tests each
state after storing it and before the next step, as Python does.  Both
steppers read the one ``BOX_BOUND`` here, and ``aggregation`` binds a
stepper for each call that steps a map, keeping none on the map.

Nothing happens at import.  On first use the C source is compiled with the
system ``cc`` into ``$XDG_CACHE_HOME/twoscalepop/<sha256>.so`` (default
``~/.cache``), keyed by the source and the flags, written to a temporary
file and moved into place, then loaded with ``ctypes``.  When the cache
cannot be written the library is built in a per-process temporary
directory instead.  With no ``cc``, a failed build, or no writable place,
every orbit steps in Python, and ``describe`` says why.

The loop forms H_k's and H's dispersal product as their Python kernels do
(see ``threestage.make_system``), with C's ``fma`` on rows 4-5, so the
compiled and the Python path give the same bytes on every CPU and from
every start.
"""
from __future__ import annotations

import ctypes
import os
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .errors import DomainExitError, TwoScalePopError

COMPLETE, REDUCED, LOCAL = 0, 1, 2
_SHAPES = {COMPLETE: (6, 30), REDUCED: (3, 12), LOCAL: (3, 6)}  # (state, constants)
_RAN, _MATCHED_FIRST, _MATCHED_SECOND, _FAILS, _INADMISSIBLE = 0, 1, 2, 3, 4

NATIVE = "native"
BOX_BOUND = 1e9  # the admissible set's bound on every coordinate
SOURCE = Path(__file__).with_name("_native.c")
FLAGS = ("-O3", "-ffp-contract=off", "-shared", "-fPIC")

# block-diagonal pattern of a 6x6 dispersal power: the (row, column) of its
# twelve structural nonzeros, row by row, in the C loop's packing order
_ROWS = np.repeat(np.arange(6), 2)
_COLS = np.array([0, 1, 0, 1, 2, 3, 2, 3, 4, 5, 4, 5])


@dataclass(frozen=True)
class Spec:
    """A map's compiled form: which C step it is and its packed constants."""

    kind: int
    constants: tuple[float, ...]

    def __post_init__(self):
        # the C loop reads a fixed number of constants per kind
        shape = _SHAPES.get(self.kind)
        if shape is None or shape[1] != len(self.constants):
            raise ValueError("constants do not fit the map kind")


def dispersal_entries(a: np.ndarray) -> list[float]:
    """The twelve structural nonzeros of a block-diagonal 6x6 power, row by
    row.  Every operator here is a ``block_diag`` of three 2x2 blocks or a
    power of one, so each entry off the blocks is a sum of exact zeros."""
    return a[_ROWS, _COLS].tolist()


def _require_admissible(x, step: int) -> None:
    """Raise ``DomainExitError`` at ``step`` unless ``x`` is admissible."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise DomainExitError("state has a non-finite coordinate", step=step, state=x)
    if np.any(x < 0.0):
        raise DomainExitError("state left the nonnegative orthant", step=step, state=x)
    if np.any(x > BOX_BOUND):
        raise DomainExitError("state exceeded the box bound", step=step, state=x)


# process-wide state, settled on first use: (library, path or reason)
_library_state: Optional[tuple] = None


def _cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):  # unset, empty or relative: the XDG default
        base = os.path.join(os.path.expanduser("~"), ".cache")
    return Path(base) / "twoscalepop"


def _compile(cc: str, out: str) -> bool:
    import subprocess  # here, not at import: only a build needs it

    try:
        proc = subprocess.run([cc, *FLAGS, "-o", out, str(SOURCE), "-lm"],
                              capture_output=True, timeout=120)
    except (OSError, subprocess.SubprocessError):
        return False
    return proc.returncode == 0


def _open(path: str) -> tuple:
    try:
        lib = ctypes.CDLL(path)
    except OSError:
        return None, "build failed"
    doubles = ctypes.POINTER(ctypes.c_double)
    head, status = (ctypes.c_int, doubles, doubles, ctypes.c_int64), ctypes.POINTER(ctypes.c_int)
    lib.twoscale_advance.restype = lib.twoscale_orbit.restype = ctypes.c_int64
    lib.twoscale_advance.argtypes = (*head, doubles, doubles, status)
    lib.twoscale_orbit.argtypes = (*head, ctypes.POINTER(ctypes.c_int64), status)
    lib.twoscale_many.restype = None
    lib.twoscale_many.argtypes = (ctypes.c_int, doubles, ctypes.c_void_p, ctypes.c_int64,
                                  ctypes.c_int64, doubles, ctypes.c_void_p, ctypes.c_void_p)
    return lib, path


def _build_in_temp(cc: str) -> tuple:
    """Build and load in a fresh temporary directory, removed once loaded."""
    try:
        tmp = tempfile.mkdtemp(prefix="twoscalepop-")
    except OSError:
        return None, "cache unwritable"
    try:
        out = os.path.join(tmp, "_native.so")
        return _open(out) if _compile(cc, out) else (None, "build failed")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _load() -> tuple:
    import hashlib  # here, not at import: it loads OpenSSL

    try:
        source = SOURCE.read_bytes()
    except OSError:
        return None, "build failed"
    digest = hashlib.sha256(source + " ".join(FLAGS).encode()).hexdigest()
    target = _cache_dir() / f"{digest}.so"
    if target.is_file():
        return _open(str(target))
    cc = shutil.which("cc")
    if cc is None:
        return None, "no compiler"
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=target.parent)
        os.close(fd)
    except OSError:
        return _build_in_temp(cc)
    try:
        if not _compile(cc, tmp):
            return None, "build failed"
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return _open(str(target))


def _library() -> tuple:
    """(ctypes library, its path) once loaded, else (None, reason)."""
    global _library_state
    if _library_state is None:
        _library_state = _load()
    return _library_state


def describe() -> str:
    """Which path this process steps orbits on, and why."""
    lib, where = _library()
    return f"native ({where})" if lib is not None else f"python: {where}"


class Stepper:
    """The stepping primitive on the compiled loop; see ``aggregation._KernelStepper``.

    ``kernel`` is the map's Python float kernel: when the loop reports that
    a step fails, the kernel replays that step to raise its exact error.
    A ``checked`` stepper stops a run at the first state outside the
    admissible set under the ``BOX_BOUND`` of its binding and raises
    ``_require_admissible``'s error; an error the kernel's replay raises
    without a step is stamped with it.  Steps count from the run's start.
    ``orbit`` runs unchecked.  ``many`` replays each row whose run fails
    through ``advance``, to raise that row's own error.
    """

    def __init__(self, spec: Spec, kernel: Callable, checked: bool = False):
        lib = _library()[0]
        self._advance, self._orbit = lib.twoscale_advance, lib.twoscale_orbit
        self._many = lib.twoscale_many
        self._kind = spec.kind
        self._dim = _SHAPES[spec.kind][0]
        self._constants = (ctypes.c_double * len(spec.constants))(*spec.constants)
        self._x = (ctypes.c_double * self._dim)()
        self._period = ctypes.c_int64()
        self._status = ctypes.c_int()
        self._kernel = kernel
        self._bound = (ctypes.c_double * 1)(BOX_BOUND) if checked else None

    def _finish(self, taken: int) -> tuple:
        x = tuple(self._x[:])  # a list first: much faster than iterating the array
        status = self._status.value
        if status == _FAILS:
            try:
                self._kernel(x)  # raises the Python kernel's error
            except DomainExitError as err:
                if self._bound is not None and err.step is None:
                    err.step = taken + 1
                raise
            raise RuntimeError("the compiled step failed where the Python kernel "
                               f"does not, after {taken} steps from the run's start")
        if status == _INADMISSIBLE:
            _require_admissible(x, taken)
            raise RuntimeError(f"the compiled check refused step {taken}, "
                               "which the Python check admits")
        return x

    def orbit(self, x: tuple, first: int) -> tuple[tuple, int, Optional[tuple[int, int]]]:
        self._x[:] = x
        t = self._orbit(self._kind, self._constants, self._x, first, self._period, self._status)
        return self._finish(t), t, None if self._status.value == _RAN else (t, self._period.value)

    def _run(self, x: tuple, n: int, rows) -> tuple:
        self._x[:] = x
        return self._finish(self._advance(self._kind, self._constants, self._x, n,
                                          rows, self._bound, self._status))

    def advance(self, x: tuple, n: int) -> tuple:
        return self._run(x, n, None)

    def rows(self, x: tuple, out: np.ndarray) -> None:
        if out.dtype != np.float64 or not out.flags.c_contiguous or out.shape[1:] != (self._dim,):
            raise ValueError(f"rows need a C-contiguous float64 (n, {self._dim}) array")
        if len(out):
            self._run(x, len(out), out.ctypes.data_as(ctypes.POINTER(ctypes.c_double)))

    def many(self, xs: np.ndarray, n: int) -> tuple[np.ndarray, dict[int, TwoScalePopError]]:
        starts = np.asarray(xs, dtype=np.float64)
        images = starts.copy(order="C")
        if images.ndim != 2 or images.shape[1] != self._dim:
            raise ValueError(f"starts must form a (count, {self._dim}) array")
        taken, status = np.empty(len(images), np.int64), np.empty(len(images), np.intc)
        self._many(self._kind, self._constants, images.ctypes.data, len(images), n,
                   self._bound, taken.ctypes.data, status.ctypes.data)
        errors = {}
        for i in np.flatnonzero(status).tolist():  # every status but _RAN
            try:
                self.advance(tuple(starts[i].tolist()), n)
            except TwoScalePopError as err:
                errors[i] = err
        return images, errors
