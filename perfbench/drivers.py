"""The benchmark's own load drivers, built only on ``submit_request``.

* :func:`closed_loop` keeps a fixed window of outstanding futures from one
  submitting thread and reports completions per second.
* :func:`open_loop` sends on a precomputed Poisson schedule from one thread
  and times every request from when it was *due*, so a stalled generator
  shows up as latency and as lateness instead of as a lower offered rate.
* :class:`GatewayProcess` runs the CLI ``gateway`` subcommand in its own
  process, so client and server do not share one interpreter lock.

All times are ``time.perf_counter()`` seconds.
"""

from __future__ import annotations

import math
import os
import queue
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from repro.exceptions import DeadlineExceededError, OverloadedError

#: Errors that are load shedding by design, not wrong answers.
SHED_ERRORS = (DeadlineExceededError, OverloadedError)

#: How long to wait for the last answers of a phase before calling them failed.
DRAIN_TIMEOUT_S = 60.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]); ``inf`` entries sort last."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


class Phase:
    """Per-request observations of one measured phase."""

    def __init__(self, name: str, items, requests) -> None:
        self.name = name
        self.items = items
        self.requests = requests
        n = len(requests)
        self.due = [0.0] * n
        self.sent = [0.0] * n
        self.done = [math.nan] * n
        self.value: list[float | None] = [None] * n
        self.hit = [False] * n
        self.error: list[BaseException | None] = [None] * n
        self.n_sent = 0
        self.started = 0.0
        self.stop_at = 0.0
        self.finished = 0.0
        self.outstanding_at_end = 0
        self.rate = 0.0
        self._lock = threading.Lock()
        self._done_count = 0
        self._closed_sending = False
        self._all_done = threading.Event()
        self.verdict: list[str] = []
        self.failures: list[str] = []

    def _callback(self, index: int, release=None):
        def _done(future) -> None:
            t = time.perf_counter()
            error = future.exception()
            if error is None:
                result = future.result()
                self.value[index] = result.memory_mb
                self.hit[index] = result.cache_hit
            else:
                self.error[index] = error
            self.done[index] = t
            with self._lock:
                self._done_count += 1
                if self._done_count == self.n_sent and self._closed_sending:
                    self._all_done.set()
            if release is not None:
                release()

        return _done

    def _finish_sending(self) -> None:
        with self._lock:
            self._closed_sending = True
            self.outstanding_at_end = self.n_sent - self._done_count
            if self._done_count == self.n_sent:
                self._all_done.set()

    def wait(self) -> None:
        self._all_done.wait(DRAIN_TIMEOUT_S)
        self.finished = time.perf_counter()

    # -- verdicts -------------------------------------------------------------------

    def verify(self, expected) -> None:
        """Classify every sent request: ok, shed, failed (error or wrong answer)."""
        verdict = []
        for i in range(self.n_sent):
            error = self.error[i]
            if error is not None:
                verdict.append("shed" if isinstance(error, SHED_ERRORS) else "failed")
            elif self.value[i] is None:
                verdict.append("failed")  # never answered
            elif expected.check(self.items[i].workload, self.value[i]):
                verdict.append("ok")
            else:
                verdict.append("failed")
            if verdict[-1] == "failed" and len(self.failures) < 5:
                self.failures.append(
                    f"request {i}: served {self.value[i]!r}, error {error!r}, "
                    f"expected {expected.describe(self.items[i].workload)}"
                )
        self.verdict = verdict

    def counts(self) -> dict[str, int]:
        return {
            "sent": self.n_sent,
            "succeeded": self.verdict.count("ok"),
            "failed": self.verdict.count("failed"),
            "shed": self.verdict.count("shed"),
        }

    def latencies_ms(self, *, tenant: str | None = None) -> list[float]:
        """Latency from due time; anything but a correct answer counts as ``inf``."""
        out = []
        for i in range(self.n_sent):
            if tenant is not None and self.items[i].tenant != tenant:
                continue
            if self.verdict[i] == "ok":
                out.append(1e3 * (self.done[i] - self.due[i]))
            else:
                out.append(math.inf)
        return out

    def rate_of_answers(self) -> float:
        """Correct answers per second, up to the last one answered in the sending window."""
        done = [
            self.done[i]
            for i in range(self.n_sent)
            if self.verdict[i] == "ok" and self.done[i] <= self.stop_at
        ]
        return len(done) / (max(done) - self.started) if done else 0.0

    def lateness_ms(self) -> list[float]:
        return [1e3 * (self.sent[i] - self.due[i]) for i in range(self.n_sent)]

    def summary(self, tail_q: float) -> dict:
        lat = self.latencies_ms()
        late = self.lateness_ms()
        out = dict(self.counts())
        out.update(
            failures=self.failures,
            name=self.name,
            rate=self.rate,
            wall_s=self.finished - self.started,
            p50_ms=percentile(lat, 50),
            tail_ms=percentile(lat, tail_q),
            lateness_p50_ms=percentile(late, 50),
            lateness_tail_ms=percentile(late, tail_q),
            lateness_max_ms=max(late) if late else math.nan,
            outstanding_at_end=self.outstanding_at_end,
            cache_hit_ratio=sum(self.hit[: self.n_sent]) / max(1, self.n_sent),
        )
        return out


def closed_loop(name, submit, items, requests, window: int, seconds: float) -> Phase:
    """Send until ``seconds`` elapse, never more than ``window`` outstanding."""
    phase = Phase(name, items, requests)
    slots = threading.Semaphore(window)
    phase.started = time.perf_counter()
    phase.stop_at = stop_at = phase.started + seconds
    for i, request in enumerate(requests):
        slots.acquire()
        now = time.perf_counter()
        if now >= stop_at:
            slots.release()
            break
        phase.due[i] = phase.sent[i] = now
        phase.n_sent = i + 1
        submit(request).add_done_callback(phase._callback(i, slots.release))
    phase._finish_sending()
    phase.wait()
    return phase


def poisson_offsets(rate: float, seconds: float, rng: np.random.Generator) -> np.ndarray:
    gaps = rng.exponential(1.0 / rate, size=int(rate * seconds * 1.3) + 16)
    offsets = np.cumsum(gaps)
    return offsets[offsets < seconds]


def open_loop(name, submit, items, requests, offsets, rate: float) -> Phase:
    """Send request ``i`` at ``start + offsets[i]``, late or not."""
    phase = Phase(name, items, requests)
    phase.rate = rate
    sleep, clock = time.sleep, time.perf_counter
    phase.started = start = clock() + 0.005
    for i, offset in enumerate(offsets):
        due = start + offset
        delay = due - clock()
        if delay > 0:
            sleep(delay)
        phase.due[i] = due
        phase.sent[i] = clock()
        phase.n_sent = i + 1
        submit(requests[i]).add_done_callback(phase._callback(i))
    phase._finish_sending()
    phase.wait()
    return phase


class GatewayProcess:
    """``learnedwmp gateway`` in a child process, on an ephemeral loopback port."""

    def __init__(self, root: Path, seed: int) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        cmd = [
            sys.executable, "-m", "repro.cli", "gateway",
            "--benchmark", "tpcds", "--queries", "600", "--batch-size", "10",
            "--requests", "1", "--seed", str(seed), "--host", "127.0.0.1", "--port", "0",
        ]
        self.proc = subprocess.Popen(
            cmd, cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True
        )
        self._lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        self._url: str | None = None

    @property
    def url(self) -> str:
        """The gateway's base URL, waiting (up to two minutes) until it listens."""
        deadline = time.monotonic() + 120.0
        seen = []
        while self._url is None:
            try:
                line = self._lines.get(timeout=max(deadline - time.monotonic(), 0.01))
            except queue.Empty:
                raise RuntimeError("gateway process did not start: " + "".join(seen)) from None
            if line is None:
                raise RuntimeError("gateway process exited: " + "".join(seen))
            seen.append(line)
            match = re.search(r"listening on (http://\S+)", line)
            if match:
                self._url = match.group(1)
        return self._url

    def _read(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def close(self) -> None:
        """Stop the gateway and wait for it to end.

        SIGTERM rather than Ctrl-C: a benchmark started in the background
        by a non-interactive shell passes SIGINT on ignored, and the gateway
        would sit out the timeout.  It holds no state worth a clean stop.
        """
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._reader.join(timeout=5)
        self.proc.stdout.close()
