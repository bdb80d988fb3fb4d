"""The unified metrics layer: counters, stage timings, and a registry.

Brokers and servers each own one :class:`Metrics` — counters, gauges
and stage-timing accumulators; the well-known names are catalogued in
``docs/ARCHITECTURE.md`` ("Metrics registry") — and a
:class:`MetricsRegistry` aggregates every component's metrics under
``(component, instance)`` labels with a JSON export and a
Prometheus-style text export — what one ``/metrics`` endpoint for the
whole cluster would serve.

A process-wide :data:`runtime_metrics` instance collects events from
code that has no component to hang a registry on (e.g. codec decode
fallbacks); clusters register it alongside their components.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class StageTiming:
    """Accumulated timings for one named stage."""

    count: int = 0
    total_ms: float = 0.0
    max_ms: float = 0.0

    def record(self, elapsed_ms: float) -> None:
        self.count += 1
        self.total_ms += elapsed_ms
        self.max_ms = max(self.max_ms, elapsed_ms)

    @property
    def mean_ms(self) -> float:
        return self.total_ms / self.count if self.count else 0.0


@dataclass
class Metrics:
    """Counter + stage-timing registry for one component instance."""

    counters: dict[str, float] = field(default_factory=dict)
    stages: dict[str, StageTiming] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)

    def incr(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def count(self, name: str) -> float:
        return self.counters.get(name, 0)

    def gauge(self, name: str, value: float) -> None:
        """Set a point-in-time value (e.g. keys tracked by an index)."""
        self.gauges[name] = value

    def gauge_value(self, name: str) -> float:
        return self.gauges.get(name, 0)

    def record_stage(self, stage: str, elapsed_ms: float) -> None:
        if stage not in self.stages:
            self.stages[stage] = StageTiming()
        self.stages[stage].record(elapsed_ms)

    def snapshot(self) -> dict:
        """A plain-dict view (what an HTTP /metrics endpoint would serve)."""
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "stages": {
                name: {
                    "count": timing.count,
                    "total_ms": timing.total_ms,
                    "mean_ms": timing.mean_ms,
                    "max_ms": timing.max_ms,
                }
                for name, timing in self.stages.items()
            },
        }


#: Process-wide fallback sink for components without their own registry
#: (codec decode fallbacks, auto-index config races). Clusters register
#: it under component="runtime".
runtime_metrics = Metrics()


class MetricsRegistry:
    """Every component's metrics behind one labeled export surface."""

    def __init__(self):
        #: (component, instance) -> Metrics
        self._sources: dict[tuple[str, str], Metrics] = {}

    def register(self, component: str, instance: str,
                 metrics: Metrics) -> Metrics:
        self._sources[(component, instance)] = metrics
        return metrics

    def get(self, component: str, instance: str) -> Metrics | None:
        return self._sources.get((component, instance))

    def sources(self) -> list[tuple[str, str, Metrics]]:
        return [(component, instance, metrics)
                for (component, instance), metrics
                in sorted(self._sources.items())]

    # -- exports ------------------------------------------------------------

    def export_json(self) -> dict:
        """Nested ``{component: {instance: snapshot}}`` view."""
        out: dict[str, dict[str, dict]] = {}
        for component, instance, metrics in self.sources():
            out.setdefault(component, {})[instance] = metrics.snapshot()
        return out

    def export_text(self) -> str:
        """Prometheus-style text exposition, one line per labeled value:

        ``repro_counter{component="broker",instance="broker-0",\
name="queries"} 12``
        """
        lines: list[str] = []
        for component, instance, metrics in self.sources():
            labels = f'component="{component}",instance="{instance}"'
            for name in sorted(metrics.counters):
                lines.append(
                    f'repro_counter{{{labels},name="{name}"}} '
                    f"{metrics.counters[name]:g}"
                )
            for name in sorted(metrics.gauges):
                lines.append(
                    f'repro_gauge{{{labels},name="{name}"}} '
                    f"{metrics.gauges[name]:g}"
                )
            for stage in sorted(metrics.stages):
                timing = metrics.stages[stage]
                stage_labels = f'{labels},stage="{stage}"'
                lines.append(
                    f"repro_stage_count{{{stage_labels}}} {timing.count}"
                )
                lines.append(
                    f"repro_stage_total_ms{{{stage_labels}}} "
                    f"{timing.total_ms:g}"
                )
                lines.append(
                    f"repro_stage_max_ms{{{stage_labels}}} "
                    f"{timing.max_ms:g}"
                )
        return "\n".join(lines) + ("\n" if lines else "")
