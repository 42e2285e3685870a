"""The benchmark's per-layer ledger wraps entry points by name
(``benchmarks/e2e/tracing.py``'s ``TRACE_POINTS``).  A rename under ``src/``
would silently drop that layer's span instead of failing anything — so
every ``(module, attribute)`` the ledger names must resolve here."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

_TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_e2e_tracing", _TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_trace_point_resolves():
    tracing = _load_tracing()
    assert tracing.TRACE_POINTS
    missing = []
    for span, points in tracing.TRACE_POINTS.items():
        for module_name, attr in points:
            try:
                target = importlib.import_module(module_name)
                for part in attr.split("."):
                    target = getattr(target, part)
            except (ImportError, AttributeError):
                target = None
            if not callable(target):
                missing.append(f"{span}: {module_name}.{attr}")
    assert not missing


def test_kernel_trace_points_fire():
    """Resolving is not enough: a refactor can keep every name and stop
    calling *through* it (reach the cost pass by a private helper, capture
    a translator in a table at import), and the layer's span goes silent
    with every other test green.  One ``repro.spmm`` and one ``repro.sddmm``
    must open exactly these kernel-layer spans."""
    import numpy as np

    import repro
    from helpers import random_csr

    tracing = _load_tracing()
    matrix = repro.FlashSparseMatrix(random_csr(96, 80, 0.08, seed=3))
    rng = np.random.default_rng(0)
    b = rng.standard_normal((80, 24))
    a = rng.standard_normal((96, 24))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.request(0):
            repro.spmm(matrix, b)
        with tracer.request(1):
            repro.sddmm(matrix, a, b)
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    fired = {name: len(tracer.durations(name)) for name in tracing.TRACE_POINTS}
    assert {name: count for name, count in fired.items() if count} == {
        "kernels.spmm_execute": 1,
        "kernels.sddmm_execute": 1,
        "kernels.engine_spmm": 1,
        "kernels.engine_sddmm": 1,
        "kernels.cost_pass": 2,
        "precision.quantize": 4,
        "formats.cache_lookup": 2,
    }


def test_serve_trace_points_fire():
    """The serving twin: the server's execution body must reach the
    planner, scheduler and cost pass — and the scheduler the quantiser —
    through their module-level names, and no translation: it plans from
    the pattern.  One SpMM, one SDDMM and one fused layer through an
    inline server open exactly these spans."""
    import numpy as np

    from helpers import random_csr
    from repro.serve import Server

    tracing = _load_tracing()
    csr = random_csr(96, 80, 0.08, seed=3)
    rng = np.random.default_rng(0)
    b = rng.standard_normal((80, 24))
    a = rng.standard_normal((96, 24))
    x = rng.standard_normal((80, 8))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with Server(workers=1) as srv:
            with tracer.request(0):
                srv.submit_spmm(csr, b).result(120)
            with tracer.request(1):
                srv.submit_sddmm(csr, a, b).result(120)
            with tracer.request(2):
                srv.submit_layer(csr, a, b, x, scale=0.5).result(120)
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    fired = {name: len(tracer.durations(name)) for name in tracing.TRACE_POINTS}
    assert {name: count for name, count in fired.items() if count} == {
        "serve.scheduler.run": 3,
        "serve.planner.plan": 3,
        "kernels.cost_pass": 2,
        "kernels.engine_spmm": 2,
        "kernels.engine_sddmm": 1,
        "kernels.layer_shard": 1,
        # Six operands, the layer's attention weights, and the stored
        # values' fp16 cast once per lane set (SpMM's and the layer's).
        "precision.quantize": 9,
        # The layer's softmax; the planner reads the memoised block index
        # and runs no segment reduction.
        "ops.segment_sum": 1,
        "ops.segment_softmax": 1,
    }


def test_lane_values_are_quantised_once_per_translation():
    """The format owns its quantised lane values: a second ``repro.spmm``
    on the same matrix quantises only its dense operand."""
    import numpy as np

    import repro
    from helpers import random_csr

    tracing = _load_tracing()
    matrix = repro.FlashSparseMatrix(random_csr(96, 80, 0.08, seed=3))
    b = np.random.default_rng(0).standard_normal((80, 24)).astype(np.float32)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for request in range(2):
            with tracer.request(request):
                repro.spmm(matrix, b)
    finally:
        tracer.uninstall()
    quantize_spans = [s[4] for s in tracer.spans if s[0] == "precision.quantize"]
    assert quantize_spans.count(0) == 2  # B and the lane values
    assert quantize_spans.count(1) == 1  # B alone
    fmt = matrix.mebcrs("fp16")
    assert fmt.quantized_lane_values("fp16") is fmt.quantized_lane_values("fp16")
