"""Per-layer tracer for the benchmark: wraps urbansst's public functions from outside.

Every hooked function keeps aggregates only: call count, inclusive seconds
and self seconds (inclusive minus the time spent in hooked callees).
Per-call spans would not fit in memory, since scenario IV alone makes
millions of ``pose_at`` calls. Spans with parent and query ids are kept
only at the cell, tick, query and seeding level, and are written once at
the end. A hook whose target is gone (say, renamed by a refactor) is
listed in ``absent`` and its metrics read 0; it does not stop the run.
"""

from __future__ import annotations

import importlib
import sys
import time

# (layer name, defining module, attribute; "Class.method" for methods)
HOOKS = (
    ("sim.run_closed_loop", "urbansst.sim", "run_closed_loop"),
    ("sst.plan", "urbansst.sst", "plan"),
    ("dki.plan_dki", "urbansst.dki", "plan_dki"),
    ("dki.seed_previous_branch", "urbansst.dki", "seed_previous_branch"),
    ("dki.seed_lane_branch", "urbansst.dki", "seed_lane_branch"),
    ("sst.select", "urbansst.sst", "PlannerTree.select"),
    ("sst.try_insert", "urbansst.sst", "PlannerTree.try_insert"),
    ("sst.propagate_checked", "urbansst.sst", "PlannerTree.propagate_checked"),
    ("sst.sample_state", "urbansst.sst", "sample_state"),
    ("sst.sample_input", "urbansst.sst", "sample_input"),
    ("objects.pose_at", "urbansst.objects", "ObjectPrediction.pose_at"),
    ("objects.clearance_cost_xy", "urbansst.objects", "clearance_cost_xy"),
    ("geometry.obb_overlap", "urbansst.geometry", "obb_overlap"),
    ("road.compute_goal_region", "urbansst.road", "compute_goal_region"),
    ("road.RoutePath.project", "urbansst.road", "RoutePath.project"),
    ("road.PenaltyGrid.lookup", "urbansst.road", "PenaltyGrid.lookup"),
    ("road.build_penalty_grid", "urbansst.road", "build_penalty_grid"),
    ("sim.rollout_inputs", "urbansst.sim", "rollout_inputs"),
    ("sim.compute_metrics", "urbansst.sim", "compute_metrics"),
    ("vehicle.step", "urbansst.vehicle", "step"),
)

# Layers whose None results are counted: a rejected propagation, or an
# insert dominated by a cheaper witness.
NONE_COUNTED = {"sst.propagate_checked", "sst.try_insert"}

# Layers that open spans. A tick runs from the goal-region computation
# that starts it to the rollout that executes its plan.
SPAN_ROLES = {
    "sim.run_closed_loop": "cell",
    "road.compute_goal_region": "tick",
    "sim.rollout_inputs": "tick_end",
    "sst.plan": "query",
    "dki.plan_dki": "query",
    "dki.seed_previous_branch": "seeding",
    "dki.seed_lane_branch": "seeding",
}


class LayerStats:
    __slots__ = ("calls", "inclusive_s", "self_s", "none_results", "nodes_added", "iterations")

    def __init__(self) -> None:
        self.calls = 0
        self.inclusive_s = 0.0
        self.self_s = 0.0
        self.none_results = 0
        self.nodes_added = 0
        self.iterations = 0


class Tracer:
    """Context manager that hooks every target in HOOKS while it is entered."""

    def __init__(self) -> None:
        self.stats = {name: LayerStats() for name, _, _ in HOOKS}
        self.absent: list = []
        self.spans: list = []
        # Child-time accumulators of the active hooked calls; [0] is the root.
        self._stack = [0.0]
        self._patches: list = []
        self._open = {"cell": None, "tick": None, "query": None}
        self._n_queries = 0
        self._tick_index = 0

    # -- installing --------------------------------------------------------

    def __enter__(self) -> "Tracer":
        for name, module_name, attr in HOOKS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(name)
                continue
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                original = vars(owner).get(method) if isinstance(owner, type) else None
                if not callable(original):
                    self.absent.append(name)
                    continue
                self._patch(owner, method, self._wrap(name, original))
            else:
                original = getattr(module, attr, None)
                if not callable(original):
                    self.absent.append(name)
                    continue
                hooked = self._wrap(name, original)
                # Modules that imported the function by name hold their own
                # reference; replace every one of them.
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name == "urbansst" or mod_name.startswith("urbansst."):
                        if getattr(mod, attr, None) is original:
                            self._patch(mod, attr, hooked)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name, fn):
        if name in SPAN_ROLES:
            return self._wrap_span(name, fn, SPAN_ROLES[name])
        st = self.stats[name]
        stack = self._stack
        clock = time.perf_counter
        if name in NONE_COUNTED:
            def hooked(*args, **kwargs):
                stack.append(0.0)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    child = stack.pop()
                    st.calls += 1
                    st.inclusive_s += dt
                    st.self_s += dt - child
                    stack[-1] += dt
                if result is None:
                    st.none_results += 1
                return result
            return hooked

        def hooked(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                st.calls += 1
                st.inclusive_s += dt
                st.self_s += dt - child
                stack[-1] += dt
        return hooked

    def _wrap_span(self, name, fn, role):
        st = self.stats[name]
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def hooked(*args, **kwargs):
            span = tracer._begin(name, role)
            iters_before = getattr(args[0], "iterations_used", 0) if role == "seeding" else 0
            stack.append(0.0)
            t0 = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                dt = t1 - t0
                child = stack.pop()
                st.calls += 1
                st.inclusive_s += dt
                st.self_s += dt - child
                stack[-1] += dt
                if role == "seeding":
                    st.iterations += getattr(args[0], "iterations_used", 0) - iters_before
                    if isinstance(result, int):
                        st.nodes_added += result
                tracer._end(span, role, t0, t1, result)
        return hooked

    # -- spans -------------------------------------------------------------

    def _close_tick(self, t_end) -> None:
        tick = self._open["tick"]
        if tick is not None:
            tick["end"] = t_end
            self._open["tick"] = None

    def _new_span(self, kind, name, parent, **attrs) -> dict:
        span = {"id": len(self.spans), "parent": parent, "kind": kind, "name": name,
                "start": time.perf_counter(), "end": None}
        span.update(attrs)
        self.spans.append(span)
        return span

    def _begin(self, name, role):
        opened = self._open
        if role == "cell":
            self._tick_index = 0
            span = self._new_span("cell", name, None)
            opened["cell"] = span
            return span
        if role == "tick":
            self._close_tick(time.perf_counter())
            cell = opened["cell"]
            span = self._new_span("tick", "tick", cell["id"] if cell else None, tick=self._tick_index)
            self._tick_index += 1
            opened["tick"] = span
            return None
        if role == "query":
            tick = opened["tick"]
            span = self._new_span(
                "query", name, tick["id"] if tick else None,
                query=self._n_queries, tick=tick["tick"] if tick else None,
            )
            self._n_queries += 1
            opened["query"] = span
            return span
        if role == "seeding":
            query = opened["query"]
            return self._new_span(
                "seeding", name, query["id"] if query else None,
                query=query["query"] if query else None,
            )
        return None

    def _end(self, span, role, t0, t1, result) -> None:
        if role == "tick_end":
            self._close_tick(t1)
            return
        if span is None:
            return
        span["start"] = t0
        span["end"] = t1
        if role == "cell":
            self._close_tick(t1)
            self._open["cell"] = None
        elif role == "query":
            self._open["query"] = None
            if result is not None:
                span["iterations"] = getattr(result, "iterations", None)
                span["solved"] = getattr(result, "solved", None)
            else:
                span["error"] = True
        elif role == "seeding":
            span["nodes_added"] = result if isinstance(result, int) else None

    # -- report ------------------------------------------------------------

    def layers(self) -> dict:
        return {
            name: {slot: getattr(st, slot) for slot in LayerStats.__slots__}
            for name, st in self.stats.items()
        }
