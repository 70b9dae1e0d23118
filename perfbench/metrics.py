"""Names, units and directions of every metric the benchmark reports.

``BENCHMARK.json`` lists the same metrics; the benchmark's tests check that
the two agree.
"""
from __future__ import annotations

MOVABLE = ("tin", "noma", "tdma-ps", "tdma-pm")
BASELINE = ("ula-tin", "ula-noma", "ula-tdma-ps", "ula-tdma-pm")
SCHEMES = MOVABLE + BASELINE
# the two fixed-array schemes that screen and run exact objectives
TIMED = MOVABLE + ("ula-noma", "ula-tdma-pm")

END_TO_END = (
    [("setup_s", "s", "lower"), ("solves_per_s", "1/s", "higher")]
    + [(f"solve_ms.{s}", "ms", "lower") for s in TIMED]
    + [(f"rate.{s}", "bit/s/Hz", "higher") for s in MOVABLE]
)

# (layer span name, reported quantities, schemes that reach the layer);
# "ms" is self time per solve of the scheme, "calls" calls per solve
LAYERS = [
    ("channel.path_terms", ("ms",), MOVABLE),
    ("seo.gains", ("ms",), SCHEMES),
    ("seo.sweep", ("ms",), MOVABLE),
    ("seo.select", ("ms",), SCHEMES),
    ("noma.bound", ("ms",), ("noma", "tdma-pm", "ula-noma", "ula-tdma-pm")),
    ("tdma.bound", ("ms",), ("tdma-pm", "ula-tdma-pm")),
    ("noma.exact", ("ms", "calls"), ("noma", "ula-noma")),
    ("tdma.exact", ("ms", "calls"), ("tdma-pm", "ula-tdma-pm")),
    ("tdma.alloc", ("ms", "calls"), ("tdma-ps", "tdma-pm", "ula-tdma-ps", "ula-tdma-pm")),
    ("noma.alloc", ("ms",), ("noma", "ula-noma")),
    ("ula.sweep", ("ms",), BASELINE),
]

# per solve, from SchemeSolution.traces
SEO_COUNTS = [
    ("seo.candidates", "count"),
    ("seo.exact_evals", "count"),
    ("seo.retention", "ratio"),
    ("seo.sweeps", "count"),
]

HARNESS = [
    ("experiments.trial_ms", "ms", "lower"),
    ("experiments.emit_ms", "ms", "lower"),
    ("experiments.pool_efficiency", "ratio", "higher"),
    ("tracing.overhead_pct", "%", "lower"),
]

_UNIT = {"ms": "ms", "calls": "count"}


def layer_metric(layer: str, quantity: str, scheme: str) -> str:
    return f"{layer}_{quantity}.{scheme}"


def per_layer() -> list[tuple[str, str, str]]:
    out = []
    for layer, quantities, schemes in LAYERS:
        for q in quantities:
            out += [(layer_metric(layer, q, s), _UNIT[q], "lower") for s in schemes]
    for name, unit in SEO_COUNTS:
        out += [(f"{name}.{s}", unit, "lower") for s in SCHEMES]
    return out + HARNESS
