"""
Span tracer for the benchmark's traced runs.

``Tracer.install`` replaces every module-level binding of a layer function
in the loaded ``euleralpha`` modules with a wrapper that records a span
under the binding's own name.  ``rhs_vorticity`` as imported by
``integrators`` is recorded as ``integrators.rhs_vorticity`` and
``step_rk4`` as imported by ``particles`` as ``particles.step_rk4``, so a
function is counted whichever name its caller uses.  The 2D/ND entry
points of ``numpy.fft`` (rfft variants included) are wrapped in the
``numpy.fft`` namespace and wherever a module bound them by name, under
the layer name ``fft``.

A span keeps count, inclusive time and self time (inclusive minus the
time of the wrapped calls made inside it).  Nothing in ``src/`` is edited:
the wrappers live here and ``uninstall`` puts the originals back.

Sweep members run in forked pool workers, which inherit the installed
wrappers.  The wrapper of the member function ``experiments._terminal_q``
notices it runs in another process, records the member into a fresh
table and writes that table to the spool directory before returning;
``collect_spool`` merges the tables back into the parent.
"""

from __future__ import annotations

import functools
import inspect
import os
import pickle
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = ("spectral", "dynamics", "integrators", "particles", "experiments", "output")
FFT_NAMES = ("fft2", "ifft2", "fftn", "ifftn", "rfft2", "irfft2", "rfftn", "irfftn")
STEPPERS = ("integrators.step_rk4", "integrators.step_lie_trotter", "integrators.step_strang")
MEMBER = "experiments._terminal_q"

# private functions that are layer boundaries: the sweep member and the
# sweep-summary CSV writer
_PRIVATE_BOUNDARIES = {"experiments": ("_terminal_q", "_write_sweep_summary")}
# methods recorded as spans: grid construction and the diagnostics CSV write
_METHODS = (("spectral", "TorusGrid", "__post_init__"), ("output", "DiagnosticsLog", "write"))


def _fft_bytes(args, result):
    """Computed bytes of one transform: input plus output array sizes."""
    return np.asarray(args[0]).nbytes + result.nbytes


def _eval_point_modes(args, result):
    """Points times retained modes of one off-grid velocity evaluation."""
    grid, _, points = args[:3]
    return len(points) * (2 * grid.kmax_dealias + 1) ** 2


def _snapshot_bytes(args, result):
    """Size of one snapshot file: magic, header and n*n float64 values."""
    n = args[1]
    return 4 + 4 + 3 * 8 + 8 * n * n


_WORK = {"fft": _fft_bytes, "particles.eval_velocity_at": _eval_point_modes,
         "output.write_snapshot": _snapshot_bytes}


class Stat:
    """Totals for one binding."""

    __slots__ = ("origin", "count", "incl", "own", "work", "durations")

    def __init__(self, origin: str):
        self.origin = origin
        self.count = 0
        self.incl = 0.0
        self.own = 0.0  # self time: inclusive minus wrapped children
        self.work = 0
        self.durations: list[float] = []

    def merge(self, other: "Stat") -> None:
        self.count += other.count
        self.incl += other.incl
        self.own += other.own
        self.work += other.work
        self.durations.extend(other.durations)


class Tracer:
    """Installs span wrappers and accumulates per-binding totals."""

    def __init__(self, spool: Path):
        self.spool = Path(spool)
        self.pid = os.getpid()
        self._patched: list[tuple[object, str, object]] = []
        self._member_seq = 0
        self.reset()

    def reset(self) -> None:
        self.stats: dict[str, Stat] = {}
        self._stack: list[list[float]] = []
        self._step_depth = 0
        # top-level Eulerian steps and the transforms made inside steps
        self.steps: list[float] = []
        self.fft_step_calls = 0
        self.fft_step_bytes = 0

    # -- recording ---------------------------------------------------------

    def _stat(self, binding: str, origin: str) -> Stat:
        stat = self.stats.get(binding)
        if stat is None:
            stat = self.stats[binding] = Stat(origin)
        return stat

    def _close(self, binding, origin, t0, frame, work, is_fft):
        dur = perf_counter() - t0
        self._stack.pop()
        if self._stack:
            self._stack[-1][0] += dur
        stat = self._stat(binding, origin)
        stat.count += 1
        stat.incl += dur
        stat.own += dur - frame[0]
        stat.work += work
        stat.durations.append(dur)
        if is_fft and self._step_depth:
            self.fft_step_calls += 1
            self.fft_step_bytes += work
        return dur

    def _wrap(self, binding: str, origin: str, fn):
        tracer = self
        layer = origin.split(".", 1)[0]
        is_fft = layer == "fft"
        work_of = _WORK.get(layer if is_fft else origin)
        stepper = origin in STEPPERS

        if inspect.isgeneratorfunction(fn):
            # each resume of the generator is one span
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    frame = [0.0]
                    tracer._stack.append(frame)
                    t0 = perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(binding, origin, t0, frame, 0, False)
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            tracer._stack.append(frame)
            top_step = stepper and tracer._step_depth == 0
            if stepper:
                tracer._step_depth += 1
            t0 = perf_counter()
            result, returned = None, False
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                if stepper:
                    tracer._step_depth -= 1
                work = work_of(args, result) if (work_of and returned) else 0
                dur = tracer._close(binding, origin, t0, frame, work, is_fft)
                if top_step:
                    tracer.steps.append(dur)

        if origin == MEMBER:
            @functools.wraps(fn)
            def member_wrapper(*args, **kwargs):
                if os.getpid() == tracer.pid:
                    return wrapper(*args, **kwargs)
                # pool worker: record this member alone and hand it back
                tracer.reset()
                try:
                    return wrapper(*args, **kwargs)
                finally:
                    tracer._spool_out()
            return member_wrapper
        return wrapper

    # -- installation ------------------------------------------------------

    def _set(self, obj, attr: str, value) -> None:
        self._patched.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def _set_item(self, table: dict, key, value) -> None:
        self._patched.append((table, key, table[key]))
        table[key] = value

    def install(self) -> None:
        """Wrap every binding of every layer function; idempotent per call to uninstall."""
        import numpy.fft as npfft

        origins: dict[int, tuple[object, str]] = {}
        for name in FFT_NAMES:
            fn = getattr(npfft, name, None)
            if fn is not None:
                origins[id(fn)] = (fn, f"fft.{name}")
        for layer in LAYERS:
            mod = sys.modules[f"euleralpha.{layer}"]
            extra = _PRIVATE_BOUNDARIES.get(layer, ())
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and (not name.startswith("_") or name in extra)):
                    origins[id(obj)] = (obj, f"{layer}.{name}")
        for layer, cls_name, meth in _METHODS:
            cls = getattr(sys.modules[f"euleralpha.{layer}"], cls_name)
            self._set(cls, meth, self._wrap(
                f"{layer}.{cls_name}.{meth}", f"{layer}.{cls_name}",
                getattr(cls, meth)))

        for name in FFT_NAMES:
            fn = getattr(npfft, name, None)
            if fn is not None:
                self._set(npfft, name, self._wrap(f"fft.{name}", f"fft.{name}", fn))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "euleralpha" or mod_name.startswith("euleralpha.")):
                continue
            short = mod_name.split(".", 1)[-1]
            for name, obj in list(vars(mod).items()):
                hit = origins.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, name, self._wrap(f"{short}.{name}", hit[1], obj))
                elif isinstance(obj, dict):
                    # dispatch tables such as integrators.STEPPERS
                    for key, value in list(obj.items()):
                        hit = origins.get(id(value))
                        if hit is not None and hit[0] is value:
                            self._set_item(obj, key, self._wrap(f"{short}.{name}[{key}]", hit[1], value))

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._patched):
            if isinstance(obj, dict):
                obj[attr] = original
            else:
                setattr(obj, attr, original)
        self._patched.clear()

    # -- pool workers ------------------------------------------------------

    def _spool_out(self) -> None:
        self._member_seq += 1
        path = self.spool / f"member-{os.getpid()}-{self._member_seq}.pkl"
        payload = (self.stats, self.steps, self.fft_step_calls, self.fft_step_bytes)
        tmp = path.with_suffix(".tmp")
        with open(tmp, "wb") as f:
            pickle.dump(payload, f, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)
        self.reset()

    def collect_spool(self) -> int:
        """Merge the tables written by pool workers; returns how many were merged."""
        merged = 0
        for path in sorted(self.spool.glob("member-*.pkl")):
            # only this tracer's own workers write into the spool directory
            with open(path, "rb") as f:
                stats, steps, calls, nbytes = pickle.load(f)
            path.unlink()
            for binding, stat in stats.items():
                self._stat(binding, stat.origin).merge(stat)
            self.steps.extend(steps)
            self.fft_step_calls += calls
            self.fft_step_bytes += nbytes
            merged += 1
        return merged

    # -- queries -----------------------------------------------------------

    def by_origin(self, *origins: str) -> Stat:
        """Totals over every binding of the given functions (or whole layers)."""
        total = Stat("+".join(origins))
        for stat in self.stats.values():
            layer = stat.origin.split(".", 1)[0]
            if stat.origin in origins or layer in origins:
                total.merge(stat)
        return total

    def binding(self, name: str) -> Stat:
        """Totals of one binding (empty when it was never called)."""
        return self.stats.get(name) or Stat(name)

    def counts(self) -> dict[str, int]:
        """Calls per binding; exact and repeatable for a fixed workload."""
        return {binding: stat.count for binding, stat in sorted(self.stats.items())}
