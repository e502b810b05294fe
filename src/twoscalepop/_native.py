"""The one stepper and its two loops: the compiled extension and Python.

Every orbit ``aggregation`` steps -- ``iterate_tail``, ``iterate`` and the
ball harnesses (trapping, attraction, instability, the convergence table)
-- goes through ``Stepper``, which binds one loop per call:

- the extension built from ``_native.c`` when the map carries a compiled
  form (``.native``, a ``Spec``) and the module loads.  It steps H_k, its
  limit H, the reduced map and the isolated-patch map with the same IEEE
  operations, in the same order, as their Python float kernels;
- otherwise the Python loop, the module-level ``orbit``, ``advance`` and
  ``many`` below, over the map's float kernel (``.kernel``) or its array
  form.  It is the compiled loop's oracle and its fallback.

The two loops have the same calls and return the same states, step counts
and status codes; each Python function takes a kernel where the
extension's takes ``(kind, constants)``, and the Python ``orbit`` runs one
series of the extension's ``orbits``.  ``Stepper._finish`` is the one
place where a status becomes an error, so both loops raise alike.  The
repeat schedule up to the tail of every series of a run is one call
(``orbits``, through ``orbits`` below), as is a batch of starts
(``many``).  On a CPU with AVX2 and FMA the extension steps two or more
series together: H_k series four to a vector, the others alongside
(``describe`` names the lanes).  A checked run stops at
the first state outside the admissible set: finite, nonnegative,
coordinates at most ``BOX_BOUND``, tested after each state is stored and
before the next step.  Step counts lie in [0, ``MAX_STEPS``]: the
compiled loop counts in 64-bit integers, and the extension refuses a
count it cannot hold instead of wrapping it.  A map's array form takes
its one step in the extension too (``threestage._with_kernel``).

Nothing happens at import.  On first use ``_native.c`` is compiled with the
system ``cc`` and the interpreter's headers (``Python.h``) into the CPython
extension module ``twoscalepop._native_c``, cached as
``$XDG_CACHE_HOME/twoscalepop/<sha256><EXT_SUFFIX>`` (default
``~/.cache``), keyed by the source, the flags, the interpreter's extension
suffix and its include directory, so another interpreter never loads it.
It is written to a temporary file and moved into place, then loaded with
``importlib.machinery.ExtensionFileLoader``.  When the cache cannot be
written the module is built in a per-process temporary directory instead.
With no ``cc``, no ``Python.h``, a failed build, or no writable place,
every orbit steps in the Python loop, and ``describe`` says why.  The
extension takes its arguments as Python objects (METH_FASTCALL) and
releases the GIL around every loop.

The loop forms H_k's and H's dispersal product as their Python kernels do
(see ``threestage.make_system``), with C's ``fma`` on rows 4-5, so the
compiled and the Python path give the same bytes on every CPU and from
every start.
"""
from __future__ import annotations

import math
import os
import shutil
import tempfile
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .errors import DomainExitError, TwoScalePopError

COMPLETE, REDUCED, LOCAL = 0, 1, 2
_SHAPES = {COMPLETE: (6, 30), REDUCED: (3, 12), LOCAL: (3, 6)}  # (state, constants)
_RAN, _MATCHED, _FAILS, _INADMISSIBLE = 0, 1, 2, 3

NATIVE = "native"
BOX_BOUND = 1e9  # the admissible set's bound on every coordinate
MAX_STEPS = 2 ** 63 - 1  # the loop counts steps in int64
SOURCE = Path(__file__).with_name("_native.c")
MODULE = "twoscalepop._native_c"  # the extension built from SOURCE
FLAGS = ("-O3", "-ffp-contract=off", "-shared", "-fPIC")

# block-diagonal pattern of a 6x6 dispersal power: the (row, column) of its
# twelve structural nonzeros, row by row, in the C loop's packing order
_ROWS = np.repeat(np.arange(6), 2)
_COLS = np.array([0, 1, 0, 1, 2, 3, 2, 3, 4, 5, 4, 5])


@dataclass(frozen=True)
class Spec:
    """A map's compiled form: which C step it is and its constants, also
    packed once as the immutable ``bytes`` of their doubles (``packed``)
    that every call into the extension passes."""

    kind: int
    constants: tuple[float, ...]
    packed: bytes = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # the C loop reads a fixed number of constants per kind
        shape = _SHAPES.get(self.kind)
        if shape is None or shape[1] != len(self.constants):
            raise ValueError("constants do not fit the map kind")
        object.__setattr__(self, "packed", array("d", self.constants).tobytes())


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


# process-wide state, settled on first use: (extension module, path or reason)
_library_state: Optional[tuple] = None


def _cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):  # unset, empty or relative: the XDG default
        base = os.path.join(os.path.expanduser("~"), ".cache")
    return Path(base) / "twoscalepop"


def _compile(cc: str, include: str, out: str) -> bool:
    import subprocess  # here, not at import: only a build needs it

    try:
        proc = subprocess.run([cc, *FLAGS, f"-I{include}", "-o", out, str(SOURCE), "-lm"],
                              capture_output=True, timeout=120)
    except (OSError, subprocess.SubprocessError):
        return False
    return proc.returncode == 0


def _open(path: str) -> tuple:
    from importlib.machinery import ExtensionFileLoader
    from importlib.util import module_from_spec, spec_from_file_location

    loader = ExtensionFileLoader(MODULE, path)
    try:
        module = module_from_spec(spec_from_file_location(MODULE, path, loader=loader))
        loader.exec_module(module)
    except ImportError:
        return None, "build failed"
    return module, path


def _build_in_temp(cc: str, include: str, suffix: str) -> tuple:
    """Build and load in a fresh temporary directory, removed once loaded."""
    try:
        tmp = tempfile.mkdtemp(prefix="twoscalepop-")
    except OSError:
        return None, "cache unwritable"
    try:
        out = os.path.join(tmp, f"_native_c{suffix}")
        return _open(out) if _compile(cc, include, out) else (None, "build failed")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _load() -> tuple:
    import hashlib  # here, not at import: it loads OpenSSL
    import sysconfig

    try:
        source = SOURCE.read_bytes()
    except OSError:
        return None, "build failed"
    # the module is built for this interpreter's ABI and headers only
    include = sysconfig.get_paths()["include"]
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    key = "\0".join((" ".join(FLAGS), suffix, include)).encode()
    target = _cache_dir() / f"{hashlib.sha256(source + key).hexdigest()}{suffix}"
    if target.is_file():
        return _open(str(target))
    cc = shutil.which("cc")
    if cc is None:
        return None, "no compiler"
    if not os.path.isfile(os.path.join(include, "Python.h")):
        return None, "no Python.h"
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=suffix, dir=target.parent)
        os.close(fd)
    except OSError:
        return _build_in_temp(cc, include, suffix)
    try:
        if not _compile(cc, include, tmp):
            return None, "build failed"
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return _open(str(target))


def _library() -> tuple:
    """(extension module, its path) once loaded, else (None, reason)."""
    global _library_state
    if _library_state is None:
        _library_state = _load()
    return _library_state


def describe() -> str:
    """Which path this process steps orbits on, and why; on the compiled
    path also how ``orbits`` steps a run's series: in ``AVX2`` lanes or
    one after another (``serial``)."""
    lib, where = _library()
    return f"native ({where}; {lib.LANES} lanes)" if lib is not None else f"python: {where}"


def advance(kernel: Callable, x: tuple, n: int, rows, bound: Optional[float]) -> tuple:
    """The extension's ``advance`` in Python, over ``kernel`` instead of
    ``(kind, constants)``: up to ``n`` steps from ``x``, each new state
    stored in the next row of ``rows`` unless that is None, and tested
    against the admissible set under ``bound`` unless that is None.

    Returns ``(state, taken, status)`` as the extension does: ``_RAN`` after
    ``n`` steps; ``_INADMISSIBLE`` with the stored state that left the set
    and its step; ``_FAILS`` when the kernel refuses the next step, with
    the state it was applied to and the steps taken before it.  The float
    test fails exactly when ``_require_admissible`` raises: a finite sum
    means finite coordinates, and coordinates at most the bound cannot
    overflow it.  A plain run (no rows, no bound) stores and tests nothing.
    """
    t = 0
    try:
        if rows is None and bound is None:
            for t in range(1, n + 1):
                x = kernel(x)
            return x, n, _RAN
        for t in range(1, n + 1):
            x = kernel(x)
            if rows is not None:
                rows[t - 1] = x
            if bound is not None and not (math.isfinite(sum(x)) and min(x) >= 0.0
                                          and max(x) <= bound):
                return x, t, _INADMISSIBLE
    except TwoScalePopError:
        return x, t - 1, _FAILS
    return x, n, _RAN


def orbit(kernel: Callable, x: tuple, first: int) -> tuple:
    """One series of the extension's ``orbits`` in Python: steps from
    ``x``, the state of step 0, under ``aggregation.iterate_tail``'s repeat
    schedule and stops at the first match or at step ``first``, unchecked.

    Returns ``(state, taken, status, period)``: ``_MATCHED`` with the steps
    since the tortoise's save, else ``_RAN`` or ``_FAILS`` as ``advance``
    reports them, with period 0.  No save falls inside the inner loop, so
    its steps only compare: ``==`` is a cheap filter that every bitwise
    match passes, except when the tortoise holds a NaN, and then the bytes
    decide every step.
    """
    t = mark = 0
    next_mark = 1
    tortoise = x
    try:
        while t < first:
            tortoise_bits = array("d", tortoise).tobytes()
            tortoise_nan = any(v != v for v in tortoise)
            for t in range(t + 1, min(next_mark, first) + 1):
                x = kernel(x)
                if (x == tortoise or tortoise_nan) and array("d", x).tobytes() == tortoise_bits:
                    return x, t, _MATCHED, t - mark
            # the save at step first, if any, is never compared
            mark, next_mark, tortoise = t, t + 1 + t // 16, x
    except TwoScalePopError:
        return x, t - 1, _FAILS, 0
    return x, t, _RAN, 0


def many(kernel: Callable, states: np.ndarray, n: int, bound: Optional[float]) -> list[tuple]:
    """The extension's ``many`` in Python: ``advance`` by ``n`` steps from
    each row of the float64 array ``states``, in place; returns ``(row,
    taken, status)`` for each row whose run did not end ``_RAN``, whose
    state then stays in ``states`` as ``advance`` left it."""
    failed = []
    for i, x in enumerate(states.tolist()):
        states[i], taken, status = advance(kernel, tuple(x), n, None, bound)
        if status != _RAN:
            failed.append((i, taken, status))
    return failed


# the Python loop: the extension's calls, each over a kernel
_PYTHON = SimpleNamespace(advance=advance, orbit=orbit, many=many)


class Stepper:
    """The stepping primitive of one map, on the loop it binds once.

    ``Stepper(map_fn, checked)`` takes the extension when the map carries a
    compiled form (``.native``) and the module loads, else the Python loop
    above, over the map's float kernel (``.kernel``) or, without one, over
    its array form; ``path`` names the choice as ``describe`` does
    (``"native"`` or ``"python: <reason>"``).  It holds the loop and its
    leading arguments, ``(kind, packed)`` or ``(kernel,)``, so every call
    below is one call of either loop, and ``_finish`` is the one place
    where a status becomes an error:

    - ``_FAILS``: the kernel replays the refused step to raise its exact
      error;
    - ``_INADMISSIBLE``: ``_require_admissible`` raises for the state that
      left the admissible set under the ``BOX_BOUND`` of the binding.

    A ``checked`` stepper tests each state; an error the replay raises
    without a step is stamped with it.  Steps count from the run's start.

    ``advance(x, n)`` returns the state ``n`` steps after ``x``.
    ``rows(x, out)`` writes the next ``len(out)`` states into ``out``, which
    must be a C-contiguous float64 ``(n, len(x))`` array.  ``many(xs, n)``
    steps each row of the (count, dim) array ``xs`` ``n`` times and returns
    ``(images, errors)``: ``errors`` maps a row to the package error its
    own ``advance`` raises, which ``_finish`` raises from the state and step
    at which the batch left that row, and that row of ``images`` holds no
    image.  The module-level ``orbits`` runs the repeat schedule of several
    steppers at once.  A stepper holds no buffer and the map keeps no
    stepper, so threads may step one map at once.
    """

    __slots__ = ("path", "_loop", "_lead", "_kernel", "_bound", "_spec")

    def __init__(self, map_fn: Callable, checked: bool = False):
        kernel = getattr(map_fn, "kernel", None)
        if kernel is None:
            kernel = lambda x: tuple(np.asarray(map_fn(np.array(x)), dtype=float).tolist())
        spec = getattr(map_fn, "native", None)
        lib, where = (None, "no compiled form") if spec is None else _library()
        if lib is None:
            self.path, self._loop, self._lead = f"python: {where}", _PYTHON, (kernel,)
        else:
            self.path, self._loop, self._lead = NATIVE, lib, (spec.kind, spec.packed)
        self._kernel, self._spec = kernel, spec
        self._bound = BOX_BOUND if checked else None

    def _finish(self, x: tuple, taken: int, status: int) -> tuple:
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

    def advance(self, x: tuple, n: int) -> tuple:
        return self._finish(*self._loop.advance(*self._lead, x, n, None, self._bound))

    def rows(self, x: tuple, out: np.ndarray) -> None:
        if out.dtype != np.float64 or not out.flags.c_contiguous or out.shape[1:] != (len(x),):
            raise ValueError(f"rows need a C-contiguous float64 (n, {len(x)}) array")
        if len(out):
            self._finish(*self._loop.advance(*self._lead, x, len(out), out, self._bound))

    def many(self, xs, n: int) -> tuple[np.ndarray, dict[int, TwoScalePopError]]:
        starts = np.asarray(xs, dtype=np.float64)
        images = starts.copy(order="C")
        if images.ndim != 2:
            raise ValueError("starts must form a 2-D (count, dim) array")
        # a map's compiled form fixes its width; one without is held to none
        if self._spec is not None and images.shape[1] != (dim := _SHAPES[self._spec.kind][0]):
            raise ValueError(f"starts must form a (count, {dim}) array")
        errors = {}
        for i, taken, status in self._loop.many(*self._lead, images, n, self._bound):
            try:
                self._finish(tuple(images[i].tolist()), taken, status)
            except TwoScalePopError as err:
                errors[i] = err
        return images, errors


def orbits(pairs: Sequence[tuple[Stepper, tuple]], first: int) -> Iterator[tuple]:
    """Each ``(stepper, start)`` of ``pairs`` stepped unchecked from its
    start, the state of step 0, under ``iterate_tail``'s repeat schedule up
    to the first match or step ``first``.

    Yields, in the order of ``pairs``, ``(state, step, repeat)``: the state
    reached, its step and the ``(step, period)`` of the match, else None.
    Every compiled stepper's series is one series of a single call of the
    extension's ``orbits``, made before the first yield; each of the others
    steps in the Python loop when its turn comes.  Each result passes
    through its stepper's ``_finish``, so the first series that fails
    raises its error there and no later series steps in Python.
    """
    compiled = [(stepper, x) for stepper, x in pairs if stepper.path == NATIVE]
    ran = iter(compiled[0][0]._loop.orbits([(*stepper._lead, x) for stepper, x in compiled],
                                           first) if compiled else ())
    for stepper, x in pairs:
        x, t, status, period = (next(ran) if stepper.path == NATIVE
                                else stepper._loop.orbit(*stepper._lead, x, first))
        yield stepper._finish(x, t, status), t, None if status == _RAN else (t, period)
