#!/usr/bin/env python3
"""finetrop benchmark: one closed-loop client driving the public API.

Run from the root of a checkout:

    python3 perfbench/run.py --workload kapranov --seed 1 --seconds 20 --trace 0

One client sends the next item only after the previous one has returned,
like a researcher running a harness.  With ``--trace 0`` the run measures
set-up several times, runs the README CLI examples and the default-seed
digest untimed, then times items for ``--seconds`` (and at least 100
items) and prints the end-to-end metrics.  With ``--trace 1`` it runs a
fixed set of items alternately untraced and traced, and prints the
per-layer metrics of ``layers.py`` plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Metric names and
units come from ``BENCHMARK.json`` at the root of the checkout; the run
fails if the metrics it computes are not exactly the ones listed there.
The package is imported from ``src/`` of the checkout; without it the run
exits with status 2 before printing a result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
SPEC = ROOT / "BENCHMARK.json"

DEFAULT_SEED = 0
MIN_ITEMS = 100       # p90 needs at least ten items beyond it
MAX_LOOP_S = 120.0    # hard stop for the timed loop, whatever the item count
SETUP_REPEATS = 5
MODULES = ("fields", "ordgroup", "hyperfields", "extension", "series", "poly",
           "solve", "tropgeo", "parsing", "svg", "cli")

sys.path.insert(0, str(HERE))
import layers  # noqa: E402
from hostspeed import Scaler  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class SetupError(RuntimeError):
    """The checkout cannot be benchmarked (no package or no spec)."""


def metric_units(trace: int) -> dict[str, str]:
    """Name -> unit of the metrics ``BENCHMARK.json`` lists for this mode."""
    try:
        with open(SPEC) as fh:
            spec = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise SetupError(f"cannot read {SPEC}: {e}") from e
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def import_finetrop() -> types.SimpleNamespace:
    """Import finetrop from src/ afresh; returns a namespace of its modules.

    Earlier imports are dropped from ``sys.modules`` first, so every call
    pays the full import and the set-up time can be sampled repeatedly.
    """
    if not (SRC / "finetrop" / "__init__.py").is_file():
        raise SetupError(f"no finetrop package under {SRC}")
    for name in [n for n in sys.modules if n.split(".")[0] == "finetrop"]:
        del sys.modules[name]
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("finetrop")
    if Path(pkg.__file__).resolve().parent != SRC / "finetrop":
        raise SetupError(f"finetrop imported from {pkg.__file__}, not {SRC}")
    mods = {m: importlib.import_module(f"finetrop.{m}") for m in MODULES}
    return types.SimpleNamespace(package=pkg, modules=[pkg, *mods.values()],
                                 **mods)


def set_up(cls, seed: int):
    t0 = time.perf_counter()
    ft = import_finetrop()
    wl = cls(ft, seed)
    return time.perf_counter() - t0, ft, wl


# ---------------------------------------------------------------------------
# Untimed checks: README CLI examples and the default-seed digest


CLI_EXAMPLES = (
    (["roots", "--hyperfield", "T", "X^2 + (1, 3)"],
     lambda out: [(r["root"], r["multiplicity"]) for r in out["roots"]]
     == [(["1", "3/2"], 2)]),
    (["axioms", "--hyperfield", "GF7/{1,2,4}"],
     lambda out: out == {"expected": "0 violations", "got": [],
                         "instance": "axioms:GF7/{1,2,4}", "status": "pass",
                         "stringent": False}),
    (["intersect", "--hom", "fval", "--stable", "X + Y - 1",
      "t*X + (1 + t^2)*Y + 1"],
     lambda out: out["points"] == [[["2", "0"], ["-1", "0"]]]
     and out["components"] == [] and out["stable"] == [["0", "0"]]),
)


def check_cli_examples(ft) -> list[str]:
    problems = []
    for argv, ok in CLI_EXAMPLES:
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                code = ft.cli.main(argv)
        except Exception as e:
            problems.append(f"finetrop {' '.join(argv)}: {type(e).__name__}: {e}")
            continue
        try:
            out = json.loads(buf.getvalue())
        except json.JSONDecodeError:
            out = None
        if code != 0 or out is None or not ok(out):
            problems.append(f"finetrop {' '.join(argv)} -> {code}: {buf.getvalue()!r}")
    return problems


def default_seed_digest(cls, ft) -> tuple[str, list[str]]:
    """Run the first items of the default seed; sha256 of their outputs."""
    wl = cls(ft, DEFAULT_SEED)
    h = hashlib.sha256()
    problems = []
    try:
        for k in range(cls.digest_items):
            try:
                out = wl.run(k)
                problems += [f"default-seed item {k}: {p}"
                             for p in wl.check(k, out)]
            except Exception as e:
                problems.append(f"default-seed item {k}: {type(e).__name__}: {e}")
                continue
            h.update(wl.canon(out).encode())
            h.update(b"\n")
    finally:
        wl.close()
    return h.hexdigest(), problems


def recorded_digest(name: str):
    with open(DIGESTS) as fh:
        return json.load(fh).get(name, {}).get("sha256")


# ---------------------------------------------------------------------------
# Item loops


def run_item(wl, k: int):
    """Run and check item k; returns (seconds, list of problems)."""
    t0 = time.perf_counter()
    try:
        out = wl.run(k)
    except Exception as e:  # any exception, BaseSolveError included, is a failure
        return time.perf_counter() - t0, [f"item {k}: {type(e).__name__}: {e}"]
    dt = time.perf_counter() - t0
    try:
        problems = wl.check(k, out)
    except Exception as e:
        problems = [f"check raised {type(e).__name__}: {e}"]
    return dt, [f"item {k}: {p}" for p in problems]


def timed_loop(wl, seconds: float):
    """Items 0, 1, ... until ``seconds`` have passed, at least MIN_ITEMS
    are done and the last round of the workload's rotation is complete."""
    scaler, failures = Scaler(), []
    start = time.perf_counter()
    k = 0
    while True:
        dt, problems = run_item(wl, k)
        scaler.add(dt)
        if problems:
            failures.append(problems)
        k += 1
        elapsed = time.perf_counter() - start
        if elapsed >= MAX_LOOP_S or (elapsed >= seconds and k >= MIN_ITEMS
                                     and k % wl.period == 0):
            return scaler, failures


def fixed_pass(wl, n: int, check: bool):
    """Items 0..n-1 once; returns (Scaler, failures)."""
    scaler, failures = Scaler(), []
    for k in range(n):
        if check:
            dt, problems = run_item(wl, k)
        else:
            t0 = time.perf_counter()
            try:
                wl.run(k)
                problems = []
            except Exception as e:
                problems = [f"item {k}: {type(e).__name__}: {e}"]
            dt = time.perf_counter() - t0
        scaler.add(dt)
        if problems:
            failures.append(problems)
    return scaler, failures


# ---------------------------------------------------------------------------
# Modes


def end_to_end(cls, args, report):
    setup_scaler = Scaler(probe_every=0.0)
    for _ in range(SETUP_REPEATS):
        dt, ft, wl = set_up(cls, args.seed)
        setup_scaler.add(dt)
    setups = setup_scaler.scaled
    report["setup_samples_s"] = setups
    untimed = untimed_checks(cls, ft, report)
    scaler, failures = timed_loop(wl, args.seconds)
    lat = scaler.scaled
    n = len(lat)
    ok = n - len(failures)
    ms = sorted(1000.0 * x for x in lat)
    p90 = statistics.quantiles(ms, n=100, method="inclusive")[89] if n > 1 else ms[0]
    # The slowest 1% of items (at least one) count at the time of the next
    # slowest.  Kapranov trials whose roots cancel under fval can take 24 s,
    # against 0.2 s for a typical trial of five factors; about one run in
    # four meets one, and it would set the rate alone.
    cap = sorted(lat)[max(0, n - 1 - max(1, n // 100))]
    metrics = {
        "items_per_s": (n, ok / sum(min(x, cap) for x in lat)),
        "item_ms_p50": (n, statistics.median(ms)),
        "item_ms_p90": (n, p90),
        "pass_ratio": (n, ok / n),
        "setup_s": (len(setups), statistics.median(setups)),
        "peak_rss_mb": (1, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024),
    }
    report.update(items=n, p90_items_beyond=n - int(0.9 * n),
                  fail_ratio=len(failures) / n,
                  true_items_per_s=ok / sum(lat),
                  geo_items_per_s=1 / statistics.geometric_mean(lat),
                  raw_items_per_s=ok / sum(scaler.raw),
                  raw_item_ms_p50=1000.0 * statistics.median(scaler.raw),
                  host_speed=scaler.host_speed)
    return n, failures, untimed, metrics


def traced(cls, args, report):
    _, ft, wl = set_up(cls, args.seed)
    untimed = untimed_checks(cls, ft, report)
    n = cls.trace_items
    plain, passes, failures = [], [], []
    start = time.perf_counter()
    while len(passes) < 2 or time.perf_counter() - start < args.seconds:
        scaler, fails = fixed_pass(wl, n, check=True)
        plain.append(sum(scaler.scaled))
        failures += fails
        tracer = layers.install(ft)
        try:
            scaler, fails = fixed_pass(wl, n, check=False)
        finally:
            tracer.uninstall()
        failures += fails
        # Layer times are rescaled with the factor of their whole pass.
        factor = sum(scaler.scaled) / sum(scaler.raw)
        m = layers.layer_metrics(tracer)
        for name, kind in layers.PER_LAYER.items():
            if kind == "time":
                m[name] *= factor
        passes.append((sum(scaler.scaled), m))
    counts = [{k: v for k, v in m.items() if layers.PER_LAYER[k] == "count"}
              for _, m in passes]
    repeat_problems = [f"traced pass {i}: counts differ from pass 0"
                       for i, c in enumerate(counts) if c != counts[0]]
    metrics = {}
    for name, kind in layers.PER_LAYER.items():
        values = [m[name] for _, m in passes]
        value = values[0] if kind == "count" else statistics.median(values)
        metrics[name] = (len(values), value)
    traced_rate = n / statistics.median(b for b, _ in passes)
    plain_rate = n / statistics.median(plain)
    metrics["trace.items_per_s"] = (len(passes), traced_rate)
    metrics["trace.untraced_items_per_s"] = (len(plain), plain_rate)
    metrics["trace.speed_ratio"] = (len(passes), traced_rate / plain_rate)
    report["trace_passes"] = len(passes)
    report["trace_items"] = n
    attempted = n * (len(passes) + len(plain))
    return attempted, failures, untimed + repeat_problems, metrics


def untimed_checks(cls, ft, report) -> list[str]:
    problems = check_cli_examples(ft)
    digest, digest_problems = default_seed_digest(cls, ft)
    problems += digest_problems
    report["digest"] = digest
    want = recorded_digest(cls.name)
    if digest != want:
        problems.append(f"default-seed outputs changed: digest {digest}, "
                        f"recorded {want}")
    return problems


# ---------------------------------------------------------------------------


def environment() -> dict:
    rev = "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        lines = out.stdout.split()
        if out.returncode == 0 and len(lines) == 2 and Path(lines[0]) == ROOT:
            rev = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "git_rev": rev}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    cls = WORKLOADS[args.workload]
    report = {"loop": "closed, 1 client", **environment()}
    try:
        units = metric_units(args.trace)
        mode = traced if args.trace else end_to_end
        attempted, failures, untimed, metrics = mode(cls, args, report)
    except SetupError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    if set(metrics) != set(units):
        print(f"perfbench: computed metrics {sorted(metrics)} differ from "
              f"{SPEC.name}: {sorted(units)}", file=sys.stderr)
        return 3

    print(f"# finetrop {cls.name}: seed {args.seed}, {report['loop']}, "
          f"trace {args.trace}; python {report['python']}, "
          f"nproc {report['nproc']}, rev {report['git_rev']}")
    print(f"# default-seed digest {report['digest']}")
    if args.trace:
        print(f"# {report['trace_passes']} untraced and traced passes over "
              f"{report['trace_items']} items")
    else:
        print(f"# {report['items']} items, {report['p90_items_beyond']} beyond "
              f"p90; fail_ratio {report['fail_ratio']}; set-up samples "
              + " ".join(f"{s:.4f}" for s in report["setup_samples_s"]))
        print(f"# uncapped rate {report['true_items_per_s']:.4g}/s; 1/geometric-mean "
              f"item time {report['geo_items_per_s']:.4g}/s; "
              f"host speed {report['host_speed']:.3f} of reference, unscaled "
              f"{report['raw_items_per_s']:.4g}/s and p50 "
              f"{report['raw_item_ms_p50']:.4g} ms")
    for name, (samples, value) in metrics.items():
        print(f"{name:32s} {value:>14.6g} {units[name]:10s} n={samples}")
    problems = untimed + [p for f in failures for p in f]
    for p in problems[:20]:
        print(f"# FAIL {p}")

    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, (_, value) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
