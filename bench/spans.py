"""Span recorder that wraps fishgame's layer functions from outside.

``Tracer.install()`` replaces each traced function with a wrapper in every
``fishgame`` module namespace that holds it (so ``from .x import f`` call
sites are covered too) and ``uninstall()`` puts the originals back.  Spans
(run id, span id, parent id, name, start, end, self time, thread) are kept in
memory and written out by ``write_csv`` when the benchmark ends.  A span's
self time is its duration minus the time covered by its children on the same
thread.  Spans opened on a worker thread with no open span take the current
run's root span as their parent.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict

# (span name, module, attribute path) for every traced callable.
TARGETS = [
    ("harvest.project", "fishgame.harvest", "project"),
    ("harvest.gradient", "fishgame.harvest", "gateaux_gradient"),
    ("harvest.ascend", "fishgame.harvest", "_ascend"),
    ("harvest.optimize_single", "fishgame.harvest", "optimize_single"),
    ("elliptic.solve_steady", "fishgame.elliptic", "solve_steady"),
    ("elliptic.eigen", "fishgame.elliptic", "principal_eigenvalue"),
    ("elliptic.linear", "fishgame.elliptic", "_solve_reaction_1d"),
    ("elliptic.linear", "fishgame.elliptic", "_solve_weighted"),
    ("elliptic.pcg", "fishgame.elliptic", "_pcg"),
    ("elliptic.splu", "fishgame.elliptic", "spla.splu"),
    ("game.nash", "fishgame.game", "nash_fixed_point"),
    ("game.best_response", "fishgame.game", "best_response"),
    ("game.eps_nash_check", "fishgame.game", "eps_nash_check"),
    ("mfhg.solve", "fishgame.mfhg", "mfhg_solve"),
    ("mfhg.fish_forward", "fishgame.mfhg", "fish_forward"),
    ("mfhg.hjb_backward", "fishgame.mfhg", "hjb_backward"),
    ("mfhg.fp_forward", "fishgame.mfhg", "fp_forward"),
    ("mfhg.diffusion", "fishgame.mfhg", "_DiffusionStep.__call__"),
    ("cli.write", "fishgame.harvest", "OptimizeReport.write_csv"),
    ("cli.write", "fishgame.game", "NashReport.write_csv"),
    ("cli.write", "fishgame.game", "write_sweep_csv"),
    ("cli.write", "fishgame.mfhg", "write_slices_csv"),
    ("cli.write", "fishgame.grid", "field_to_csv"),
    ("cli.write", "fishgame.cli", "_write_manifest"),
]


class _Proxy:
    """Stands in for a module inside one namespace: one attribute replaced,
    the rest delegated (used so elliptic's ``spla.splu`` is traced without
    touching the splu that mfhg calls)."""

    def __init__(self, target, name, value):
        self._target = target
        setattr(self, name, value)

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    def __init__(self):
        self.spans = []            # finished span records, see module docstring
        self.counts = []           # (counter, increment) read from return values
        self.missing = []          # targets not found in this build of fishgame
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._fields = itertools.count()
        self._patches = []         # (owner, attribute, original)
        self._epoch = time.perf_counter()
        self.run_id = None
        self._root = None

    # ------------------------------------------------------------ spans
    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name):
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        frame = [next(self._ids), parent[0] if parent else 0, name, time.perf_counter(), 0.0]
        stack.append(frame)
        return frame

    def close(self, frame):
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        duration = end - frame[3]
        if stack:
            stack[-1][4] += duration
        self.spans.append((self.run_id, frame[0], frame[1], frame[2],
                           frame[3] - self._epoch, end - self._epoch,
                           duration - frame[4], threading.get_ident()))

    def begin_run(self, run_id):
        """Open the root span of one benchmark run."""
        self.run_id = run_id
        self._root = self.open("cli.run")

    def end_run(self):
        self.close(self._root)
        self._root = None

    # ------------------------------------------------------------ patching
    def _wrap(self, name, fn, on_result):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(frame)
            if on_result is not None:
                tracer.counts.extend(on_result(result))
            return result

        return traced

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        self.missing = []
        modules = {k: m for k, m in sys.modules.items()
                   if k == "fishgame" or k.startswith("fishgame.")}
        for name, module_name, path in TARGETS:
            owner = modules.get(module_name)
            *prefix, attr = path.split(".")
            for part in prefix:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            wrapped = self._wrap(name, original, _ON_RESULT.get(path))
            if prefix and isinstance(owner, type):
                self._set(owner, attr, wrapped)          # method on a class
            elif prefix:
                holder = modules[module_name]            # module seen through an alias
                self._set(holder, prefix[0], _Proxy(owner, attr, wrapped))
            else:
                for module in modules.values():          # every importer of the name
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._set(module, key, wrapped)
        field_cls = getattr(modules.get("fishgame.grid"), "Field", None)
        if field_cls is None:
            self.missing.append("fishgame.grid.Field")
        else:
            post_init = field_cls.__post_init__
            counter = self._fields

            def counted(obj):
                next(counter)
                post_init(obj)

            self._set(field_cls, "__post_init__", counted)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def field_constructions(self) -> int:
        """Field objects built while this tracer was installed (read once)."""
        return next(self._fields)

    # ------------------------------------------------------------ output
    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write("run,span,parent,name,start_s,end_s,self_s,thread\n")
            for rec in self.spans:
                fh.write("%s,%d,%d,%s,%.9f,%.9f,%.9f,%d\n" % rec)


# Counters read from return values: _ascend returns (alpha, J, theta,
# iterations, converged); the others return report objects.
_ON_RESULT = {
    "_ascend": lambda r: [("harvest.ascend.iters", r[3]),
                          ("harvest.ascend.unconverged", not r[4])],
    "solve_steady": lambda r: [("elliptic.newton_iters", r.iterations)],
    "nash_fixed_point": lambda r: [("game.rounds", r.rounds)],
    "mfhg_solve": lambda r: [("mfhg.picard_sweeps", r.sweeps_used)],
}


def layer_metrics(tracer: Tracer, runs: int) -> tuple[dict, dict]:
    """Per-layer metrics, averaged per run, from the recorded spans, and
    each span name's self time as a share of the runs' wall time.  ``*.s``
    is self time; ``*.total_s`` includes the children."""
    calls = defaultdict(int)
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    counts = defaultdict(float)
    for key, increment in tracer.counts:
        counts[key] += increment
    names = {rec[1]: rec[3] for rec in tracer.spans}
    under = defaultdict(int)   # (name, parent name) -> calls
    nash_s = []
    wall = covered = 0.0
    by_run = defaultdict(list)
    for run_id, span_id, parent, name, start, end, own, _ in tracer.spans:
        calls[name] += 1
        under[(name, names.get(parent))] += 1
        self_s[name] += own
        total_s[name] += end - start
        if name == "game.nash":
            nash_s.append(end - start)
        by_run[run_id].append((span_id, parent, name, start, end))
    for spans in by_run.values():
        root = next(s for s in spans if s[2] == "cli.run")
        wall += root[4] - root[3]
        covered += _union([(s[3], s[4]) for s in spans if s[1] == root[0]])

    def per_run(x):
        return x / runs

    trials = under[("elliptic.solve_steady", "harvest.ascend")] - calls["harvest.ascend"]
    iters = counts["harvest.ascend.iters"]
    out = {
        "harvest.project.calls": per_run(calls["harvest.project"]),
        "harvest.project.s": per_run(self_s["harvest.project"]),
        "harvest.ascend.iters": per_run(iters),
        "harvest.ascend.unconverged": per_run(counts["harvest.ascend.unconverged"]),
        "harvest.linesearch.trials": per_run(trials),
        "harvest.linesearch.accept_ratio": iters / trials if trials else 0.0,
        "harvest.gradient.calls": per_run(calls["harvest.gradient"]),
        "harvest.gradient.s": per_run(self_s["harvest.gradient"]),
        "harvest.optimize_single.calls": per_run(calls["harvest.optimize_single"]),
        "harvest.optimize_single.s": per_run(self_s["harvest.optimize_single"]),
        "elliptic.solve_steady.calls": per_run(calls["elliptic.solve_steady"]),
        "elliptic.solve_steady.s": per_run(self_s["elliptic.solve_steady"]),
        "elliptic.newton_iters": per_run(counts["elliptic.newton_iters"]),
        "elliptic.restarts": per_run(under[("elliptic.eigen", "elliptic.solve_steady")]),
        "elliptic.linear.calls": per_run(calls["elliptic.linear"]),
        "elliptic.linear.s": per_run(self_s["elliptic.linear"]),
        "elliptic.splu.calls": per_run(calls["elliptic.splu"]),
        "elliptic.splu.s": per_run(self_s["elliptic.splu"]),
        "elliptic.pcg.calls": per_run(calls["elliptic.pcg"]),
        "elliptic.pcg.s": per_run(self_s["elliptic.pcg"]),
        "game.rounds": per_run(counts["game.rounds"]),
        "game.best_response.calls": per_run(calls["game.best_response"]),
        "game.best_response.s": per_run(self_s["game.best_response"]),
        "game.eps_nash_check.calls": per_run(calls["game.eps_nash_check"]),
        "game.eps_nash_check.s": per_run(self_s["game.eps_nash_check"]),
        "cli.sweep.point_s.max": max(nash_s, default=0.0),
        "cli.sweep.point_s.sum": per_run(sum(nash_s)),
        "mfhg.picard_sweeps": per_run(counts["mfhg.picard_sweeps"]),
        "mfhg.fish_forward.s": per_run(self_s["mfhg.fish_forward"]),
        "mfhg.hjb_backward.s": per_run(self_s["mfhg.hjb_backward"]),
        "mfhg.fp_forward.s": per_run(self_s["mfhg.fp_forward"]),
        "mfhg.diffusion.calls": per_run(calls["mfhg.diffusion"]),
        "mfhg.diffusion.s": per_run(self_s["mfhg.diffusion"]),
        "cli.write.s": per_run(self_s["cli.write"]),
        "grid.field_constructions": per_run(tracer.field_constructions()),
        "trace.span_coverage": covered / wall if wall else 0.0,
    }
    for name in ("harvest.optimize_single", "elliptic.solve_steady", "game.best_response",
                 "game.eps_nash_check"):
        out[f"{name}.total_s"] = per_run(total_s[name])
    shares = {name: s / wall for name, s in sorted(self_s.items())} if wall else {}
    return out, shares


def _union(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    end_prev = float("-inf")
    for start, end in sorted(intervals):
        if end <= end_prev:
            continue
        total += end - max(start, end_prev)
        end_prev = end
    return total
