"""Benchmark of the leeway pipeline, run from the root of a checkout.

    python3 bench/run.py --workload scores --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --smoke

One single-threaded process calls ``leeway.cli.main`` once per operation, in
a closed loop. A run measures set-up in fresh interpreters, builds the
workload's inputs from ``--seed``, runs one untimed warm-up pass at one
draw, then repeats the pass for about ``--seconds`` seconds. Wall and set-up
times are scaled by a reference chunk timed around them (see reference.py),
because this host's speed drifts by up to 2x. Every operation's outputs are
checked. With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics and the tracing overhead. The last line of standard
output is one JSON object. ``--smoke`` runs every workload once at tiny
sizes with the checks on. See README.md in this directory.
"""

from __future__ import annotations

import os

# One BLAS thread: the run never asks for more threads than there are cores.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

from reference import HostSpeed  # noqa: E402

SRC = "src"
OUT = os.path.join("bench", "out")
SETUP_INTERPRETERS = 5
IMPORTTIME_INTERPRETERS = 3


def fresh_imports(n: int, speed: HostSpeed | None = None,
                  importtime: bool = False) -> list:
    """Import ``leeway.cli`` in ``n`` fresh interpreters, one after another.

    Returns the wall time of each, scaled by ``speed``, or with
    ``importtime`` the stderr of ``-X importtime``.
    """
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    flags = ["-X", "importtime"] if importtime else []
    results = []
    for _ in range(n):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, *flags, "-c", "import leeway.cli"],
                              env=env, capture_output=True, text=True, timeout=120)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"import leeway.cli failed:\n{proc.stderr}")
        results.append(proc.stderr if importtime else speed.scale(elapsed))
    return results


def import_times(stderr: str) -> tuple[float, float]:
    """(leeway import, scipy.stats import) in seconds from -X importtime.

    The first is the cumulative time of the outermost ``leeway`` entries.
    scipy.stats has no entry of its own (``from scipy import stats`` goes
    through scipy's lazy loader), so the second sums the outermost
    ``scipy.stats.*`` entries; it reads 0 when nothing imports scipy.stats.
    """
    entries = []
    for line in stderr.splitlines():
        match = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)", line)
        if match:
            entries.append((len(match[2]), match[3], int(match[1]) * 1e-6))
    total = scipy_stats = 0.0
    ancestors: list[tuple[int, str]] = []
    # importtime prints children before their parent, so walk it backwards.
    for indent, name, cumulative in reversed(entries):
        while ancestors and ancestors[-1][0] >= indent:
            ancestors.pop()
        if not ancestors and name.split(".")[0] == "leeway":
            total += cumulative
        if name.startswith("scipy.stats") and not any(
                a.startswith("scipy.stats") for _, a in ancestors):
            scipy_stats += cumulative
        ancestors.append((indent, name))
    return total, scipy_stats


def digest(path: str) -> str:
    """SHA-256 of an output, without what names the run's input paths.

    A CSV's header comment line and a JSON file's config hash cover the
    input paths, which differ per run, so they are left out. CSVs are hashed
    in chunks, so the hash adds little to the process's peak memory.
    """
    sha = hashlib.sha256()
    with open(path, "rb") as fh:
        if path.endswith(".json"):
            sha.update(re.sub(rb'"config": "[0-9a-f]*"', b'"config": ""', fh.read()))
            return sha.hexdigest()
        first = fh.readline()
        if not first.startswith(b"#"):
            sha.update(first)
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            sha.update(chunk)
    return sha.hexdigest()


class Runner:
    """Runs passes over a workload's operations and checks their outputs."""

    def __init__(self, cli, operations, speed: HostSpeed):
        self.cli = cli
        self.operations = operations
        self.speed = speed
        self.attempted = 0
        self.failed = 0
        self.check_failed = False
        # (raw, scaled) wall time of every call, per operation
        self.op_walls: dict[str, list[tuple[float, float]]] = {
            op.name: [] for op in operations}
        self.digests: dict[str, str] = {}
        self._verdicts: dict[tuple, list[str]] = {}

    def warm_up(self):
        """One untimed, unchecked pass, with ``--draws 1`` where an operation has it.

        It runs every code path and reads every input file once, at a
        fraction of a full pass's time. The first timed pass is checked.
        """
        for op in self.operations:
            argv = list(op.argv)
            if "--draws" in argv:
                argv[argv.index("--draws") + 1] = "1"
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    self.cli.main(argv)
            except Exception:  # the timed passes count and report failures
                traceback.print_exc()
        self.speed.restart()

    def run_pass(self, tracer=None, label: str = "") -> tuple[float, float]:
        """Run every operation once; returns the pass's raw and scaled wall time."""
        raw = scaled = 0.0
        for op in self.operations:
            for path in op.outputs:
                if os.path.exists(path):
                    os.remove(path)
            if tracer is not None:
                tracer.operation = f"{label}:{op.name}"
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = self.cli.main(op.argv)
            except Exception:  # a crash fails the operation; the run goes on
                traceback.print_exc()
                code = None
            elapsed = time.perf_counter() - t0
            op_scaled = self.speed.scale(elapsed)
            raw += elapsed
            scaled += op_scaled
            self.op_walls[op.name].append((elapsed, op_scaled))
            self.attempted += 1
            problems = self._verify(op) if code == 0 else [f"exit code {code}"]
            if problems:
                self.failed += 1
                print(f"FAILED {op.name}: " + "; ".join(problems[:5]), file=sys.stderr)
        return raw, scaled

    def _verify(self, op) -> list[str]:
        """Check an operation's outputs; identical bytes reuse the verdict."""
        try:
            digests = tuple(digest(p) for p in op.outputs)
            key = (op.name, digests)
            if key not in self._verdicts:
                self._verdicts[key] = op.check()
        except Exception as exc:  # a malformed output is a failed check
            self.check_failed = True
            return [f"check raised {type(exc).__name__}: {exc}"]
        for path, value in zip(op.outputs, digests):
            self.digests.setdefault(f"{op.name} {os.path.basename(path)}", value)
        if self._verdicts[key]:
            self.check_failed = True
        return self._verdicts[key]


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _summary(name: str, values: list[float]) -> str:
    q1, q3 = _quartiles(values)
    return (f"{name}: median {statistics.median(values):.6g} q1 {q1:.6g} q3 {q3:.6g} "
            f"n {len(values)}")


def _more(start: float, seconds: float, last: float) -> bool:
    """Whether to start another pass: it would end less than half a pass late.

    So a run measures about ``seconds`` on average even when one pass is a
    large share of it, as in ``reform``.
    """
    return time.perf_counter() - start + last / 2.0 < seconds


def timed_run(runner, seconds: float) -> dict:
    runner.warm_up()
    passes = []
    start = time.perf_counter()
    while not passes or _more(start, seconds, passes[-1][0]):
        passes.append(runner.run_pass())
    print(_summary("raw wall s per pass", [raw for raw, _ in passes]))
    for name, values in runner.op_walls.items():
        print(_summary(f"  raw {name} s", [raw for raw, _ in values]))
    print(_summary("reference chunk s", runner.speed.samples))
    scaled = [s for _, s in passes]
    print(_summary("wall_s per pass", scaled))
    return {"wall_s": (statistics.median(scaled), "s")}


def traced_run(runner, seconds: float, workload: str, seed: int) -> dict:
    from tracing import Tracer

    tracer = Tracer()
    runner.warm_up()
    untraced, traced, layers = [], [], []
    start = time.perf_counter()
    while not traced or _more(start, seconds, untraced[-1][0] + traced[-1][0]):
        untraced.append(runner.run_pass())
        tracer.reset()
        tracer.install()
        try:
            traced.append(runner.run_pass(tracer, label=str(len(traced))))
        finally:
            tracer.remove()
        layers.append(tracer.layer_metrics())
    os.makedirs(OUT, exist_ok=True)
    tracer.write_spans(os.path.join(OUT, f"trace-{workload}-seed{seed}.json"))

    metrics = {}
    for name in layers[0]:
        unit = _unit(name)
        # Counts repeat exactly from pass to pass; median_low keeps them whole.
        middle = statistics.median if unit == "s" else statistics.median_low
        metrics[name] = (middle([layer[name] for layer in layers]), unit)
    # The overhead compares scaled pass times, so a speed regime shift
    # between the two kinds of pass does not show up as overhead.
    untraced_s = statistics.median(s for _, s in untraced)
    overhead = statistics.median(s for _, s in traced) - untraced_s
    metrics["trace.overhead_s"] = (overhead, "s")
    for kind, passes in (("untraced", untraced), ("traced", traced)):
        print(_summary(f"{kind} raw wall s per pass", [raw for raw, _ in passes]))
        print(_summary(f"{kind} wall_s per pass", [s for _, s in passes]))
    print(f"tracing overhead: {overhead:.6g} s per pass ({overhead / untraced_s:.1%})")

    min_ess_per_s = 0.0
    did = next((op for op in runner.operations if op.name == "did"), None)
    if did is not None:
        with open(did.outputs[1], encoding="utf-8") as fh:
            min_ess = min(json.load(fh)["ess"].values())
        did_walls = runner.op_walls["did"][::2]  # the untraced passes
        min_ess_per_s = min_ess / statistics.median(scaled for _, scaled in did_walls)
    metrics["min_ess_per_s"] = (min_ess_per_s, "1/s")

    stderr = fresh_imports(IMPORTTIME_INTERPRETERS, importtime=True)
    times = [import_times(text) for text in stderr]
    metrics["setup.import_s"] = (statistics.median(t[0] for t in times), "s")
    metrics["setup.import_scipy_stats_s"] = (statistics.median(t[1] for t in times), "s")
    return metrics


def _unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def _peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(args) -> dict:
    import workloads
    from leeway import cli

    size = workloads.SMOKE if args.smoke else workloads.FULL
    speed = HostSpeed()
    setup = [] if args.smoke or args.trace else fresh_imports(SETUP_INTERPRETERS, speed)
    os.makedirs(OUT, exist_ok=True)
    work = os.path.relpath(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        operations = workloads.WORKLOADS[args.workload](".", work, args.seed, size)
        runner = Runner(cli, operations, speed)
        print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
              f"trace {args.trace}")
        # The harness's own share of peak_rss_mb: imports and inputs.
        print(f"peak rss before the first pass {_peak_mb():.1f} MB")
        if args.smoke:
            runner.run_pass()
            metrics = {}
        elif args.trace:
            metrics = traced_run(runner, args.seconds, args.workload, args.seed)
        else:
            metrics = timed_run(runner, args.seconds)
            print(_summary("setup_s per interpreter", setup))
            metrics["setup_s"] = (statistics.median(setup), "s")
            metrics["peak_rss_mb"] = (_peak_mb(), "MB")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, value in sorted(runner.digests.items()):
        print(f"digest {name} {value}")
    print(f"operations attempted {runner.attempted} failed {runner.failed}")
    return {"correct": not runner.check_failed, "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=("scores", "outcomes", "reform"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload once at tiny sizes with the checks on")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "leeway", "cli.py")):
        print("error: run from the root of a leeway checkout (src/leeway is missing)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath(SRC))

    if args.smoke:
        ok = True
        for workload in ("scores", "outcomes", "reform"):
            args.workload = workload
            result = run(args)
            ok = ok and result["correct"] and result["failed"] == 0
            print(json.dumps(result, sort_keys=True))
        return 0 if ok else 1
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    print(json.dumps(run(args), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
