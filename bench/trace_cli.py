"""Run one dronecell CLI command in this process with its layers timed.

    python3 bench/trace_cli.py TRACE.json <dronecell arguments...>

The program is not edited. Before the command runs, the public names that
each caller looks up are replaced by wrappers that record one span per
call: name, start, end, parent span and a work count. Spans stay in memory
and are written to TRACE.json, with per-layer totals, when the command
ends. A name that no longer exists is skipped; its layer then reports zero
calls and its time stays in the span of its caller, which for the engine's
callees is `sim.engine`.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np

import dronecell.cli as cli
import dronecell.sim as sim

# (module, public name, layer, work count taken from the call's arguments)
HOOKS = (
    (sim, "sample_user_count", "sim.sampling", None),
    (sim, "sample_users_uniform_disc", "sim.sampling", lambda n, *a, **k: int(n)),
    (sim, "min_enclosing_circle", "placement.sbc", lambda pts, *a, **k: len(pts)),
    (sim, "solve_mar_batch", "placement.mar", lambda users, *a, **k: np.shape(users)[0]),
    (sim, "solve_edge_angle", "design.solve", None),
    (cli, "solve_edge_angle", "design.solve", None),
    (cli, "run_simulation", "sim.engine", None),
)
RATE_LAYER = "channel.rate"
MAR_LAYER = "placement.mar"
ROOT_LAYER = "cli.emit"  # the command's own self time: CSV rows, JSON, digests


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [layer, start, end, parent index, work]
        self._stack: list[int] = []

    def wrap(self, layer: str, fn, count=None):
        def traced(*args, **kwargs):
            work = count(*args, **kwargs) if count is not None else 0
            rec = [layer, 0.0, 0.0, self._stack[-1] if self._stack else -1, work]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self._stack.pop()
        return traced

    def install(self) -> None:
        for module, name, layer, count in HOOKS:
            if hasattr(module, name):
                setattr(module, name, self.wrap(layer, getattr(module, name), count))
        if hasattr(sim, "rate_function"):
            make_rate = sim.rate_function

            def rate_function(*args, **kwargs):
                return self.wrap(RATE_LAYER, make_rate(*args, **kwargs),
                                 lambda kappa: int(np.size(kappa)))
            sim.rate_function = rate_function

    def totals(self) -> dict:
        """Per-layer calls, work and self time (span minus its children),
        plus the rate-kernel calls and elements spent inside MAR spans."""
        child_s = [0.0] * len(self.spans)
        for layer, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        layers: dict[str, dict] = {}
        mar_sweeps = mar_elems = 0
        for i, (layer, start, end, parent, work) in enumerate(self.spans):
            t = layers.setdefault(layer, {"calls": 0, "work": 0, "self_s": 0.0})
            t["calls"] += 1
            t["work"] += work
            t["self_s"] += end - start - child_s[i]
            if layer == RATE_LAYER and self._inside(parent, MAR_LAYER):
                mar_sweeps += 1
                mar_elems += work
        return {"layers": layers, "mar_sweeps": mar_sweeps, "mar_elems": mar_elems}

    def _inside(self, index: int, layer: str) -> bool:
        while index >= 0:
            if self.spans[index][0] == layer:
                return True
            index = self.spans[index][3]
        return False


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    code = tracer.wrap(ROOT_LAYER, cli.main)(cli_args)
    with open(out_path, "w") as fh:
        json.dump(dict(tracer.totals(), spans=tracer.spans), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
