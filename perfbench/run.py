"""Run one benchmark workload against the treelines sources of this checkout.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 20 --trace 0

The run sets up the workload several times (a fresh import of treelines,
input generation and parsing) and reports the median as ``setup_s``.  It
then runs whole rounds of the workload's fixed operations until
``--seconds`` have passed, checks the first round's outputs with the
benchmark's own checks, and requires every later round to give the same
outputs.  Times are scaled to a reference speed by the probe of
``speed.py``.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``; the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``.  Each
workload's own rates and the raw times are printed above it and saved
under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import importlib
import functools
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import checks
import workloads
from speed import Probe
from tracing import LAYERS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUPS = 3

# per-layer counters beyond calls and self time: (function, counter, unit,
# hook), the hook taking (treelines, args, result, error) and its sum over
# calls being the counter; counters without a hook are ratios of others
COUNTERS = [
    ("ramsey.color_by_gaps", "triples", "count",
     lambda tl, a, r, e: math.comb(len(a[0]), 3)),
    ("embed.solve", "nodes", "count",
     lambda tl, a, r, e: r.nodes if r is not None else 0),
    ("embed.solve", "restarts", "count",
     lambda tl, a, r, e: r.restarts if r is not None else 0),
    ("embed.solve", "nodes_per_call", "nodes/call", None),
    ("unstretch.feasibility_search", "triples", "count",
     lambda tl, a, r, e: max(1, a[1] // tl.unstretch._CONFIGS_PER_TRIPLE)),
    ("unstretch.validate_config", "ok", "count",
     lambda tl, a, r, e: int(r is not None and r.ok)),
    ("unstretch.validate_config", "calls_per_triple", "calls/triple", None),
    ("unstretch.lemma24_check", "hypothesis_failures", "count",
     lambda tl, a, r, e: int(isinstance(e, tl.unstretch.HypothesisFail))),
    ("unstretch._FrameFloats.clearly_meets_hull", "passed", "count",
     lambda tl, a, r, e: int(r is False)),
    ("io_formats.parse_lines", "bytes", "bytes",
     lambda tl, a, r, e: len(a[0])),
    ("io_formats.parse_instance", "bytes", "bytes",
     lambda tl, a, r, e: len(a[0])),
    ("io_formats.parse_embedding", "bytes", "bytes",
     lambda tl, a, r, e: len(a[0])),
    ("svg.render_svg", "bytes", "bytes",
     lambda tl, a, r, e: len(r) if r is not None else 0),
]


def import_program():
    """A fresh import of treelines from this checkout's src/."""
    for name in [k for k in sys.modules
                 if k == "treelines" or k.startswith("treelines.")]:
        del sys.modules[name]
    tl = SimpleNamespace(**{m: importlib.import_module(f"treelines.{m}")
                            for m in LAYERS})
    origin = Path(sys.modules["treelines"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"treelines imported from {origin}, not {SRC}")
    return tl


def set_up(cls, seed: int, probe: Probe, tracer=None):
    """Import, generate and parse; returns the workload, the raw set-up
    time and the probe's scale for it."""
    probe.tick()
    t0 = time.perf_counter()
    tl = import_program()
    if tracer is not None:
        for q, counter, _, hook in COUNTERS:
            if hook is not None:
                tracer.count(q, counter, functools.partial(hook, tl))
        tracer.install()
    wl = cls(tl, np.random.default_rng(seed))
    t1 = time.perf_counter()
    probe.tick()
    return wl, t1 - t0, probe.scale(t0, t1)


def canon(x):
    """Outputs made comparable between rounds (LineSets compare by lines)."""
    if isinstance(x, (list, tuple)):
        return tuple(canon(v) for v in x)
    if type(x).__name__ == "LineSet":
        return ("LineSet", x.lines)
    return x


def run_round(wl, probe: Probe, first=None):
    """One round; later rounds keep only whether their outputs matched
    the first round's."""
    rnd = wl.round(probe)
    rnd.scale()
    rnd.failed = wl.failed(rnd)
    if first is not None:
        rnd.outputs = canon(rnd.outputs) == canon(first.outputs)
    return rnd


def measure(wl, probe: Probe, seconds: float):
    """Whole rounds until ``seconds`` have passed."""
    t0 = time.perf_counter()
    rounds = [run_round(wl, probe)]
    while time.perf_counter() - t0 < seconds:
        rounds.append(run_round(wl, probe, rounds[0]))
    return rounds


def verify(wl, rounds) -> bool:
    try:
        wl.check(rounds[0])
    except checks.CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return False
    if not all(r.outputs is True for r in rounds[1:]):
        print("check failed: rounds gave different outputs", file=sys.stderr)
        return False
    return True


def end_to_end(wl, setups, rounds, probe: Probe):
    ops = [op for r in rounds for op in r.ops]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(r.wall for r in rounds), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MiB"),
    }
    details = {"rounds": len(rounds), "ops_per_round": len(rounds[0].ops),
               "raw_wall_s": statistics.median(r.raw_seconds
                                               for r in rounds),
               "probe_median_ms": 1e3 * statistics.median(probe.durations),
               **wl.details(ops)}
    return metrics, details


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    out = {}
    for mod, funcs in LAYERS.items():
        for fn in funcs:
            out[f"{mod}.{fn}.calls"] = "count"
            out[f"{mod}.{fn}.self_s"] = "s"
            out.update({f"{q}.{name}": unit for q, name, unit, _ in COUNTERS
                        if q == f"{mod}.{fn}"})
        out[f"{mod}.self_s"] = "s"
    out.update({"trace.wall_s": "s", "trace.untraced_wall_s": "s",
                "trace.overhead": "ratio", "trace.spans": "count"})
    return out


def traced_run(cls, seed, seconds, probe: Probe, setups):
    """One untraced round for the overhead base, then traced rounds.
    Per-layer figures are for one set-up plus one round (the mean of the
    traced rounds), with self times scaled like the end-to-end times."""
    for _ in range(SETUPS - 1):
        _, raw, scale = set_up(cls, seed, probe)
        setups.append(raw * scale)
    tracer = Tracer()
    wl, raw, setup_scale = set_up(cls, seed, probe, tracer)
    setups.append(raw * setup_scale)
    setup_mark, setup_counts = tracer.mark(), dict(tracer.counters)

    tracer.uninstall()
    base = run_round(wl, probe)
    tracer.install()
    t0 = time.perf_counter()
    rounds = measure(wl, probe, seconds)
    trace_scale = probe.scale(t0, time.perf_counter())
    tracer.uninstall()
    base.outputs = canon(base.outputs) == canon(rounds[0].outputs)
    k = len(rounds)

    metrics = {}
    before = tracer.self_times(0, setup_mark)
    during = tracer.self_times(setup_mark)
    for mod, funcs in LAYERS.items():
        total = 0.0
        for fn in funcs:
            q = f"{mod}.{fn}"
            metrics[f"{q}.calls"] = before[q][0] + during[q][0] / k
            metrics[f"{q}.self_s"] = (before[q][1] * setup_scale
                                      + during[q][1] * trace_scale / k)
            total += metrics[f"{q}.self_s"]
        metrics[f"{mod}.self_s"] = total
    metrics.update({q: setup_counts[q] + (v - setup_counts[q]) / k
                    for q, v in tracer.counters.items()})
    solves = metrics["embed.solve.calls"]
    metrics["embed.solve.nodes_per_call"] = (
        metrics["embed.solve.nodes"] / solves if solves else 0.0)
    triples = metrics["unstretch.feasibility_search.triples"]
    metrics["unstretch.validate_config.calls_per_triple"] = (
        metrics["unstretch.validate_config.calls"] / triples
        if triples else 0.0)
    traced_wall = statistics.median(r.wall for r in rounds)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.untraced_wall_s"] = base.wall
    metrics["trace.overhead"] = traced_wall / base.wall - 1
    metrics["trace.spans"] = (tracer.mark() - setup_mark) / k
    OUT.mkdir(exist_ok=True)
    tracer.save(str(OUT / f"trace-{cls.__name__.lower()}-{seed}.npz"))
    units = per_layer_units()
    return (wl, rounds + [base],
            {name: (metrics[name], unit) for name, unit in units.items()},
            {"traced_rounds": k})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "treelines").is_dir():
        print(f"error: no treelines sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    cls = workloads.WORKLOADS[args.workload]

    probe, setups = Probe(), []
    if args.trace:
        wl, rounds, metrics, details = traced_run(
            cls, args.seed, args.seconds, probe, setups)
    else:
        for _ in range(SETUPS):
            wl, raw, scale = set_up(cls, args.seed, probe)
            setups.append(raw * scale)
        rounds = measure(wl, probe, args.seconds)
        metrics, details = end_to_end(wl, setups, rounds, probe)
    correct = verify(wl, rounds)
    attempted = sum(len(r.ops) for r in rounds)
    failed = sum(r.failed for r in rounds)

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}"
              f".json", "w") as fh:
        json.dump({**result, "details": details, "setups_s": setups}, fh,
                  indent=1)
    for k, v in details.items():
        print(f"{args.workload} {k}: {v:.6g}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
