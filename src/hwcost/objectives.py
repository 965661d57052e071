"""Objective plug-ins for the search loop.

Built-in synthetic functions for desk-scale benchmarking, plus an
external-command bridge: the point goes to the command's stdin as one CSV
line, the command prints y; a nonzero exit, or a run past the timeout,
marks the evaluation failed.
"""

from __future__ import annotations

import math
import os
import signal
import subprocess


class ObjectiveError(RuntimeError):
    """External objective command failed, timed out or produced no parseable value."""


def quadratic_bowl(center=0.3):
    """Sum of squared distances to `center`: a scalar broadcasts to all dims,
    a sequence gives one value per coordinate of the point."""
    def objective(x):
        if isinstance(center, (int, float)):
            return sum((v - center) ** 2 for v in x)
        if len(center) != len(x):
            raise ValueError(f"center has {len(center)} values, the point {len(x)}")
        return sum((v - c) ** 2 for v, c in zip(x, center))
    return objective


def branin():
    """Branin function rescaled to the unit box; global minimum ~0.397887."""
    a = 1.0
    b = 5.1 / (4.0 * math.pi ** 2)
    c = 5.0 / math.pi
    r = 6.0
    s = 10.0
    t = 1.0 / (8.0 * math.pi)

    def objective(x):
        x1 = 15.0 * x[0] - 5.0
        x2 = 15.0 * x[1]
        return a * (x2 - b * x1 ** 2 + c * x1 - r) ** 2 + s * (1.0 - t) * math.cos(x1) + s
    return objective


def with_noise(objective, sigma: float, seed: int):
    """Additive Gaussian noise; the noise stream is its own seeded generator."""
    from .seeding import generator  # numpy, which noiseless objectives do not need
    rng = generator(seed, 0x401E)

    def noisy(x):
        return objective(x) + sigma * float(rng.standard_normal())
    return noisy


def command_objective(argv: list[str], timeout: float | None = None):
    """Wrap an external command as an objective.

    Each call writes `x` as one comma-separated line to the command's stdin
    and parses the first token of stdout as y. A call that runs past
    `timeout` seconds (None: no limit) raises ObjectiveError once the
    command and every process left in its process group are killed.
    """
    if timeout is not None and not (math.isfinite(timeout) and timeout > 0.0):
        raise ValueError(f"timeout must be a finite number > 0, got {timeout!r}")

    def objective(x):
        line = ",".join(repr(float(v)) for v in x) + "\n"
        with subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, start_new_session=True) as proc:
            try:
                stdout, stderr = proc.communicate(line, timeout=timeout)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)   # its session's one process group
                proc.wait()
                raise ObjectiveError(f"objective command ran past {timeout:g} s") from None
        if proc.returncode != 0:
            raise ObjectiveError(f"objective command exited {proc.returncode}: {stderr.strip()}")
        tokens = stdout.split()
        if not tokens:
            raise ObjectiveError("objective command printed no value")
        return float(tokens[0])
    return objective


def build_objective(name: str, center=0.3, noise: float = 0.0, seed: int = 0,
                    command: list[str] | None = None, timeout: float | None = None):
    """CLI-facing factory for the objective selector; `noise` is the sigma of
    additive Gaussian noise, a finite number >= 0 (0 adds none), and
    `timeout` the command objective's limit in seconds per call."""
    if not (math.isfinite(noise) and noise >= 0.0):
        raise ValueError(f"noise must be a finite number >= 0, got {noise!r}")
    if name == "quadratic":
        fn = quadratic_bowl(center)
    elif name == "branin":
        fn = branin()
    elif name == "command":
        if not command:
            raise ValueError("command objective needs a command line")
        fn = command_objective(command, timeout)
    else:
        raise ValueError(f"unknown objective {name!r}")
    if noise > 0.0:
        fn = with_noise(fn, noise, seed)
    return fn
