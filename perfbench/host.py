"""The host's state while the benchmark measures: CPUs kept awake, and their speed.

A small VM on a shared host disturbs the benchmark in two ways that have
nothing to do with the program, and each swamps the effects the benchmark
should show.

* Waking an idle vCPU.  A thread that sleeps (the open-loop generator
  between sends, the server's batching-window timer, a gateway waiting on
  its socket) leaves its vCPU idle, and the guest halts it.  The wake-up
  then waits for the host to run that vCPU again: 0.1 ms on a quiet host,
  several ms when other tenants are busy, for minutes at a time.  On a
  2-vCPU VM the gateway's median latency at a fixed rate moved between 6
  and 10 ms from run to run with it.  :class:`Awake` keeps every CPU busy
  with a spinner at the ``SCHED_IDLE`` priority, which any other thread
  preempts at once: the user-space form of the kernel's ``idle=poll``.
  Alternating runs with and without it, the gateway's low-rate median read
  6.0-6.5 ms with it and 6.3-8.5 ms without.

* The speed of a vCPU.  It drifts by up to 2x from one minute to the next,
  with other tenants' load on the same physical cores (hyperthread
  siblings, memory bandwidth), and the two vCPUs of a small VM often run at
  different speeds at the same moment.  Interpreter time tracks wall time
  through it: the vCPU runs slower, it is not taken away.  :class:`Probe`
  reads each CPU's speed by timing a fixed kernel (dictionary stores and
  small numpy products, the mix the serving path runs) between phases, and
  the benchmark scales each round's figures to the reference speed.

The probe's kernel runs in a child process, between phases, when the
program under test should be idle.  In the benchmark's own process it would
share the interpreter lock with the program, and a program that kept a
thread busy would slow the kernel as much as itself and hide that.

Run as a script, this module is one of those children: ``spin CPU`` spins on
CPU until its parent exits; ``probe CPU...`` answers each line on standard
input with the median seconds of PASSES passes of the kernel on each CPU.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time

import numpy as np

#: Seconds one pass of :func:`_kernel` took on the reference host, a 2-vCPU
#: VM (the host the plans' rates were frozen on), median of 2000 passes.
REFERENCE_S = 6.3e-4
#: Passes per reading of one CPU; the reading is their median.
PASSES = 5

_ROWS = np.random.default_rng(0).random((64, 24))
_VECTOR = np.random.default_rng(1).random(24)


def _kernel() -> None:
    table = {}
    for i in range(300):
        table[i] = (i * 7) % 13
        _ROWS[i % 64] @ _VECTOR


def pass_seconds() -> float:
    """Seconds of one pass of the kernel."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


def _child(*args: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), *args],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )


def _stop(proc: subprocess.Popen) -> None:
    """Close the child's pipes, end it if it does not end by itself, and wait for it."""
    try:
        proc.stdin.close()
    except OSError:
        pass
    try:
        proc.wait(timeout=10)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    proc.stdout.close()


class Awake:
    """A ``SCHED_IDLE`` spinner on each CPU, so that no CPU halts (see the module notes)."""

    def __init__(self) -> None:
        self.procs = []
        try:
            for cpu in sorted(os.sched_getaffinity(0)):
                self.procs.append(_child("spin", str(cpu)))
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        for proc in self.procs:
            proc.kill()
            _stop(proc)


class Probe:
    """The kernel in a child process, timed on each CPU on request."""

    def __init__(self) -> None:
        self.cpus = sorted(os.sched_getaffinity(0))
        self.proc = _child("probe", *map(str, self.cpus))

    def speeds(self) -> list[float]:
        """Each CPU's speed now, in the order of ``cpus``, relative to the reference host."""
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("host-speed probe exited")
        return [REFERENCE_S / float(x) for x in line.split()]

    def speed(self) -> float:
        """The host's speed now: the mean over its CPUs, which the program's threads share."""
        return statistics.mean(self.speeds())

    def close(self) -> None:
        _stop(self.proc)


def _spin(cpu: int) -> None:
    os.sched_setaffinity(0, {cpu})
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    parent = os.getppid()
    while os.getppid() == parent:
        for _ in range(100_000):
            pass


def _probe(cpus: list[int]) -> None:
    for _ in sys.stdin:
        readings = []
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            readings.append(statistics.median(pass_seconds() for _ in range(PASSES)))
        print(" ".join(map(str, readings)), flush=True)


if __name__ == "__main__":
    if sys.argv[1] == "spin":
        _spin(int(sys.argv[2]))
    else:
        _probe([int(cpu) for cpu in sys.argv[2:]])
