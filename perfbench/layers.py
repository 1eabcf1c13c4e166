"""Which simulator methods the tracer wraps, and the per-layer metrics.

Layer names follow the modules: ``dfn`` is ``core.dynamic_feistel``,
``scheme`` is ``core.security_rbsg`` / ``wearlevel.rbsg``, ``array`` is
``pcm.array``, ``memory_system`` is ``sim.memory_system``, ``engine`` is
``sim.engine``, ``ff`` is ``sim.fastforward``, ``trace`` is the trace
source (``TraceSpec`` or ``traffic.tenants``) and ``attack`` is
``attacks.rta_rbsg``.  ``bench`` is the benchmark's own bookkeeping.

Every ``*_s`` metric is self time except ``ff.tail_s``, which is the
inclusive host time of the chunk-exact tail (its self part is already in
``engine.self_s``).
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from tracer import Tracer

from repro.sim import engine

SCHEME_METHODS = (
    "consume_chunk", "record_write", "translate", "round_wear_profile",
    "apply_round",
)
DFN_METHODS = ("translate_many", "translate", "step")
ARRAY_METHODS = ("write", "write_many", "copy", "swap", "apply_wear_bulk")

ENGINE = "engine.run_trace_fast"
FF_DRIVER = "ff.run_fast_forward"


# ----------------------------------------------------------- counters


def _chunk_written(tracer: Tracer, parent: str, args: tuple, result) -> None:
    _, n = result
    if n:
        tracer.count("engine.chunks")
        tracer.count("engine.chunk_writes", n)


def _dfn_addrs(tracer: Tracer, parent: str, args: tuple, result) -> None:
    tracer.count("dfn.translate_many_addrs", len(args[0]))


def _array_lines(tracer: Tracer, parent: str, args: tuple, result) -> None:
    tracer.count("array.write_many_lines", len(args[0]))


def _bulk_refused(tracer: Tracer, parent: str, args: tuple, result) -> None:
    if not result:
        tracer.count("array.apply_wear_bulk_refused")


def _round_writes(tracer: Tracer, parent: str, args: tuple, result) -> None:
    tracer.count("ff.analytic_writes", args[0].writes)


def _tail_writes(tracer: Tracer, parent: str, args: tuple, result) -> None:
    if parent == FF_DRIVER:
        tracer.count("ff.tail_writes", result.user_writes)


def _trace_writes(tracer: Tracer, parent: str, args: tuple, result) -> None:
    tracer.count("trace.writes", len(result[0]))


def _attack_writes(tracer: Tracer, parent: str, args: tuple, result) -> None:
    tracer.count("attack.detection_writes", result.detection_writes)
    tracer.count("attack.user_writes", result.user_writes)


# ---------------------------------------------------------- instrument


def instrument_modules(tracer: Tracer) -> None:
    """Wrap the engine entry point (called by the benchmark and, for the
    fast-forward tail, by ``run_fast_forward``) and the analytic driver;
    :meth:`Tracer.unwrap` restores both."""
    tracer.wrap(engine, "run_trace_fast", ENGINE, _tail_writes)
    tracer.wrap(engine, "run_fast_forward", FF_DRIVER)


def instrument_controller(tracer: Tracer, controller) -> None:
    """Wrap the controller, its scheme (and DFN outer level) and array."""
    tracer.wrap(controller, "write", "memory_system.write")
    tracer.wrap(controller, "write_chunk", "memory_system.write_chunk",
                _chunk_written)
    scheme = controller.scheme
    hooks = {"apply_round": _round_writes}
    for method in SCHEME_METHODS:
        tracer.wrap(scheme, method, f"scheme.{method}", hooks.get(method))
    outer = getattr(scheme, "outer", None)
    if outer is not None:
        for method in DFN_METHODS:
            tracer.wrap(outer, method, f"dfn.{method}",
                        _dfn_addrs if method == "translate_many" else None)
    hooks = {"write_many": _array_lines, "apply_wear_bulk": _bulk_refused}
    for method in ARRAY_METHODS:
        tracer.wrap(controller.array, method, f"array.{method}",
                    hooks.get(method))


def instrument_spec(tracer: Tracer, spec) -> None:
    """Time the chunks a ``TraceSpec`` generates (the chunk-exact tail)."""
    chunks = spec.chunks
    spec.chunks = lambda: iterate_trace(tracer, chunks())


def iterate_trace(tracer: Tracer, chunks):
    return tracer.iterate(chunks, "trace.next", _trace_writes)


def instrument_attack(tracer: Tracer, attack) -> None:
    tracer.wrap(attack, "run", "attack.run", _attack_writes)


# ------------------------------------------------------------- metrics

#: (name, unit) of every per-layer metric, in report order.
METRICS: List[Tuple[str, str]] = [
    ("dfn.translate_many_s", "s"),
    ("dfn.translate_many_addrs", "count"),
    ("dfn.ns_per_addr", "ns"),
    ("dfn.translate_calls", "count"),
    ("dfn.translate_s", "s"),
    ("dfn.step_calls", "count"),
    ("dfn.step_s", "s"),
    ("scheme.consume_chunk_s", "s"),
    ("scheme.consume_chunk_calls", "count"),
    ("scheme.record_write_s", "s"),
    ("scheme.record_write_calls", "count"),
    ("scheme.translate_s", "s"),
    ("scheme.round_wear_profile_s", "s"),
    ("scheme.round_wear_profile_calls", "count"),
    ("scheme.apply_round_s", "s"),
    ("array.write_many_s", "s"),
    ("array.write_many_lines", "count"),
    ("array.write_s", "s"),
    ("array.write_calls", "count"),
    ("array.copy_s", "s"),
    ("array.copy_calls", "count"),
    ("array.swap_s", "s"),
    ("array.swap_calls", "count"),
    ("array.apply_wear_bulk_s", "s"),
    ("array.apply_wear_bulk_calls", "count"),
    ("array.apply_wear_bulk_refused", "count"),
    ("memory_system.write_s", "s"),
    ("memory_system.write_calls", "count"),
    ("memory_system.write_chunk_s", "s"),
    ("memory_system.write_chunk_calls", "count"),
    ("engine.chunk_mean_len", "writes"),
    ("engine.chunks", "count"),
    ("engine.boundary_writes", "count"),
    ("engine.self_s", "s"),
    ("ff.rounds", "count"),
    ("ff.refused", "count"),
    ("ff.commit_ratio", "ratio"),
    ("ff.analytic_writes", "count"),
    ("ff.tail_writes", "count"),
    ("ff.analytic_share", "ratio"),
    ("ff.tail_s", "s"),
    ("ff.driver_self_s", "s"),
    ("trace.gen_s", "s"),
    ("trace.writes", "count"),
    ("attack.self_s", "s"),
    ("attack.detection_writes", "count"),
    ("attack.user_writes", "count"),
    ("bench.units", "count"),
    ("bench.user_writes", "count"),
    ("bench.build_s", "s"),
    ("bench.traced_s", "s"),
    ("bench.untraced_s", "s"),
    ("bench.trace_overhead", "ratio"),
    ("bench.span_coverage", "ratio"),
]

#: Metrics that are deterministic for a seed and compared exactly.
COUNT_UNITS = ("count", "writes")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, *, units: int, user_writes: int,
                  traced_s: float, untraced_s: float) -> Dict[str, Any]:
    """Every :data:`METRICS` entry from one traced run's aggregates.

    Ratios come with their bases as separate metrics: ``dfn.ns_per_addr``
    over ``dfn.translate_many_addrs``, ``engine.chunk_mean_len`` over
    ``engine.chunks``, ``ff.commit_ratio`` over
    ``array.apply_wear_bulk_calls``, ``ff.analytic_share`` over
    ``bench.user_writes``, ``bench.trace_overhead`` over
    ``bench.untraced_s`` and ``bench.span_coverage`` over
    ``bench.traced_s``.
    """
    c = tracer.counters.get
    values: Dict[str, float] = {}
    for layer, methods in (("dfn", DFN_METHODS), ("scheme", SCHEME_METHODS),
                           ("array", ARRAY_METHODS)):
        for method in methods:
            values[f"{layer}.{method}_s"] = tracer.self_s(f"{layer}.{method}")
            values[f"{layer}.{method}_calls"] = tracer.calls(
                f"{layer}.{method}")
    for method in ("write", "write_chunk"):
        name = f"memory_system.{method}"
        values[f"{name}_s"] = tracer.self_s(name)
        values[f"{name}_calls"] = tracer.calls(name)
    addrs = c("dfn.translate_many_addrs", 0)
    values["dfn.translate_many_addrs"] = addrs
    values["dfn.ns_per_addr"] = 1e9 * _ratio(
        values["dfn.translate_many_s"], addrs)
    values["array.write_many_lines"] = c("array.write_many_lines", 0)
    refused = c("array.apply_wear_bulk_refused", 0)
    values["array.apply_wear_bulk_refused"] = refused
    chunks = c("engine.chunks", 0)
    values["engine.chunks"] = chunks
    values["engine.chunk_mean_len"] = _ratio(c("engine.chunk_writes", 0),
                                             chunks)
    values["engine.boundary_writes"] = tracer.calls("memory_system.write",
                                                    ENGINE)
    values["engine.self_s"] = tracer.self_s(ENGINE)
    rounds = tracer.calls("scheme.apply_round")
    values["ff.rounds"] = rounds
    values["ff.refused"] = refused
    values["ff.commit_ratio"] = _ratio(
        rounds, values["array.apply_wear_bulk_calls"])
    analytic = c("ff.analytic_writes", 0)
    values["ff.analytic_writes"] = analytic
    values["ff.tail_writes"] = c("ff.tail_writes", 0)
    values["ff.analytic_share"] = _ratio(analytic, user_writes)
    values["ff.tail_s"] = tracer.total_s(ENGINE, FF_DRIVER)
    values["ff.driver_self_s"] = tracer.self_s(FF_DRIVER)
    values["trace.gen_s"] = tracer.self_s("trace.next")
    values["trace.writes"] = c("trace.writes", 0)
    values["attack.self_s"] = tracer.self_s("attack.run")
    values["attack.detection_writes"] = c("attack.detection_writes", 0)
    values["attack.user_writes"] = c("attack.user_writes", 0)
    values["bench.units"] = units
    values["bench.user_writes"] = user_writes
    values["bench.build_s"] = tracer.self_s("bench.build")
    values["bench.traced_s"] = traced_s
    values["bench.untraced_s"] = untraced_s
    values["bench.trace_overhead"] = _ratio(traced_s, untraced_s)
    values["bench.span_coverage"] = _ratio(
        sum(tracer.top_level().values()), traced_s)
    return {name: {"value": values[name], "unit": unit}
            for name, unit in METRICS}

