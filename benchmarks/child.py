"""One run of a workload in a fresh process; started by run.py.

Usage: python3 child.py '<json spec>' from an empty working directory,
with the program's ``src`` directory on PYTHONPATH. The spec names the
workload, seed, grid and whether to trace.

Protocol: one JSON object per line on stdout. ``ready`` once imports and
input generation are done, ``done`` after each command, ``end`` last.
Everything the program prints goes to a buffer instead, so the two never
mix; the harness reads the buffer from the ``done`` event.

Untraced runs also time a fixed reference kernel every
``PROBE_PERIOD_S`` seconds, from a timer signal, during set-up and during
each command. Each phase reports the probe's own time (``probe_s``), which
the harness takes out of the phase's wall time, and the median kernel
time (``kernel_s``), so the harness can express times at a fixed host
speed.
"""

import contextlib
import json
import resource
import signal
import sys
import time
from io import StringIO
from statistics import median

PROBE_PERIOD_S = 0.25
PROBE_SIZE = 20000
MIN_SAMPLES = 3


def reference_kernel() -> int:
    """Fixed work that allocates nothing the garbage collector tracks.

    Tracked allocations would trigger collections whose cost depends on
    the program's heap, which is exactly what the kernel must not see.
    """
    table = {}
    for i in range(PROBE_SIZE):
        table[i ^ 0x55] = i
    total = 0
    for i in range(PROBE_SIZE):
        total += table[i ^ 0x55] * 3
    return total


class SpeedProbe:
    """Times ``reference_kernel`` from a SIGALRM handler while running."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.samples: list[float] = []

    def sample(self, signum=None, frame=None):
        start = time.perf_counter()
        reference_kernel()
        self.samples.append(time.perf_counter() - start)

    @contextlib.contextmanager
    def running(self):
        if not self.enabled:
            yield
            return
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def report(self) -> dict:
        """The probe's total time and the median kernel time.

        A phase too short for ``MIN_SAMPLES`` gets the rest right after it.
        """
        while self.enabled and len(self.samples) < MIN_SAMPLES:
            self.sample()
        return {
            "probe_s": sum(self.samples),
            "kernel_s": median(self.samples) if self.samples else None,
        }


def emit(event: dict):
    sys.__stdout__.write(json.dumps(event) + "\n")
    sys.__stdout__.flush()


def run_command(cli, argv) -> tuple[int | None, str]:
    buffer = StringIO()
    with contextlib.redirect_stdout(buffer):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        except Exception as exc:  # any crash counts as a failed command
            print(f"crash: {type(exc).__name__}: {exc}", file=sys.stderr)
            code = None
    return code, buffer.getvalue()


def main(spec: dict):
    traced = spec["trace"]
    probe = SpeedProbe(enabled=not traced)
    stack = contextlib.ExitStack()
    with probe.running():
        from topogen import cli

        import workloads

        workload = workloads.WORKLOADS[spec["workload"]]
        tracer = None
        if traced:
            import tracing

            tracer = tracing.Tracer()
            stack.enter_context(tracer.installed())

        def span(name):
            return tracer.span(name) if tracer else contextlib.nullcontext()

        with span("setup"):
            workload.setup(spec["seed"], tuple(spec["grid"]))
    emit({"event": "ready", **probe.report()})
    with stack:
        for index, command in enumerate(workload.commands):
            probe = SpeedProbe(enabled=not traced)
            start = time.perf_counter()
            with span(f"cli.{command.name}"), probe.running():
                code, output = run_command(cli, command.argv)
            report = probe.report()
            emit(
                {
                    "event": "done",
                    "index": index,
                    "code": code,
                    "elapsed_s": time.perf_counter() - start,
                    **report,
                    "stdout": output,
                }
            )
    if tracer:
        with open("spans.json", "w", encoding="utf-8") as stream:
            json.dump(tracer.spans, stream)
    emit(
        {
            "event": "end",
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    )


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
