"""``repro.obs``: end-to-end query observability.

Distributed tracing (broker → transport → server → engine spans on the
shared virtual clock), a Chrome-trace exporter, a slow-query log, and
the unified labeled metrics registry. See ``docs/ARCHITECTURE.md``
("Observability") for the trace model and span taxonomy.
"""

from repro.obs.export import (
    to_chrome_json,
    to_chrome_trace,
    validate_chrome_trace,
)
from repro.obs.metrics import (
    Metrics,
    MetricsRegistry,
    StageTiming,
    runtime_metrics,
)
from repro.obs.propagation import SpanRecorder, activate, current, deactivate
from repro.obs.slowlog import SlowQueryLog
from repro.obs.trace import (
    STATUS_CANCELLED,
    STATUS_ERROR,
    STATUS_OK,
    Span,
    SpanContext,
    Trace,
    Tracer,
)
