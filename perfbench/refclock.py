"""Reference-speed clock: wall time scaled by a calibration kernel.

The shared 2-vCPU host this benchmark was built on switches between a fast
and a roughly 2x slower state, for anything from a fraction of a second to
minutes (6.0 against 11.3 ms per time step on ``decay-ex2-m128``); the CPU
clock slows just as much.  Medians of the loop's raw wall time over a 35 s
run still differed by 25% from run to run.

So the timed call is cut into segments at marks set from outside the
program: at the call, at every ``STEP_MARK_EVERY``-th ``cn_step`` call and
after the call.  The first segment is the set-up, the rest the time loop.
Each mark times a fixed numpy kernel, unrelated to tempermg, of the same
kind of work as a time step (small FFT round trips and vector updates), and
each segment's time is scaled by ``CAL_REF_S`` over the mean kernel time at
its two ends.  The kernel takes about ``CAL_REF_S`` on an uncontended core
of that host, so there a reference second is about a wall second.  Kernel
time is excluded from every segment.

The slow state slows long vectorised assembly less than the kernel, so a
set-up dominated by it (``oneshot-ex1-m4096``) still moves with the host's
state, less than its raw wall time does.
"""

from __future__ import annotations

import time

import numpy as np

CAL_REF_S = 2.0e-3
STEP_MARK_EVERY = 16

_KERNEL_X = np.linspace(0.0, 1.0, 256)
_KERNEL_W = 1.0 / (1.0 + np.arange(129.0))


def kernel_seconds():
    """Wall time of the calibration kernel.  It uses ``numpy.fft``, not the
    ``scipy.fft`` the solver uses, so the solver cannot change its plan
    caches."""
    x = _KERNEL_X.copy()
    t0 = time.perf_counter()
    for _ in range(100):
        y = np.fft.irfft(np.fft.rfft(x) * _KERNEL_W, 256)
        x = x + 0.5 * (y - x)
    return time.perf_counter() - t0


class RefClock:
    def __init__(self):
        # per mark: wall before, kernel seconds, wall after, cpu before, cpu after
        self.marks = []
        self._undo = None
        kernel_seconds()  # the process's first numpy.fft call pays one-time set-up

    def mark(self):
        w0, c0 = time.perf_counter(), time.process_time()
        kernel = kernel_seconds()
        self.marks.append((w0, kernel, time.perf_counter(), c0, time.process_time()))

    def install(self, timestep):
        """Mark at every ``STEP_MARK_EVERY``-th ``cn_step`` call."""
        step = timestep.cn_step
        steps = 0

        def marked_step(*args, **kwargs):
            nonlocal steps
            if steps % STEP_MARK_EVERY == 0:
                self.mark()
            steps += 1
            return step(*args, **kwargs)

        timestep.cn_step = marked_step
        self._undo = (timestep, step)

    def uninstall(self):
        if self._undo is not None:
            timestep, step = self._undo
            timestep.cn_step = step
            self._undo = None

    def seconds(self):
        """Set-up (first segment) and loop (the others) seconds: raw on the
        wall and CPU clocks, and in reference seconds on both."""
        m = np.asarray(self.marks)
        wall = m[1:, 0] - m[:-1, 2]
        cpu = m[1:, 3] - m[:-1, 4]
        scale = CAL_REF_S / (0.5 * (m[1:, 1] + m[:-1, 1]))
        out = {}
        for name, seg in (("wall", wall), ("cpu", cpu), ("ref", wall * scale),
                          ("ref_cpu", cpu * scale)):
            out[f"setup_{name}"] = float(seg[0])
            out[f"march_{name}"] = float(seg[1:].sum())
        return out
