"""User-facing FlashSparse API.

The typical flow mirrors how the paper integrates FlashSparse into PyTorch:

1. build a :class:`~repro.formats.matrix.FlashSparseMatrix` from any sparse
   input (scipy, CSR, dense); kernel calls translate it into ME-BCRS once,
   through the shared cache,
2. call :func:`spmm` / :func:`sddmm` with dense operands,
3. inspect the result's ``values``, ``counter`` (simulated hardware cost)
   and, when a device is requested, the estimated runtime and GFLOPS.

The matrix type lives in :mod:`repro.formats.matrix` and the result types
(:class:`~repro.kernels.common.SpmmResult`,
:class:`~repro.kernels.common.SddmmResult`) in :mod:`repro.kernels.common`:
this facade re-exports them, and every path — a kernel entry point, a
baseline, these functions, a served request — returns those same types.

>>> import numpy as np, scipy.sparse as sp
>>> from repro import FlashSparseMatrix, spmm
>>> a = sp.random(128, 128, density=0.05, format="csr", random_state=1)
>>> m = FlashSparseMatrix.from_scipy(a)
>>> b = np.ones((128, 32))
>>> res = spmm(m, b, device="rtx4090")
>>> res.values.shape
(128, 32)
"""

from __future__ import annotations

import numpy as np

from repro.formats.matrix import FlashSparseMatrix, _as_input
from repro.gpu.counters import CostCounter
from repro.gpu.device import GPUSpec, get_device
from repro.kernels.common import FlashSparseConfig, SddmmResult, SpmmResult
from repro.kernels.sddmm_flash import FLASH_SDDMM_PROFILE, sddmm_flash_cost, sddmm_flash_execute
from repro.kernels.spmm_flash import FLASH_SPMM_PROFILE, spmm_flash_cost, spmm_flash_execute
from repro.perfmodel.model import estimate_time
from repro.precision.types import Precision

#: Public alias: the kernel configuration object.
KernelConfig = FlashSparseConfig


def _resolve_device(device: str | GPUSpec | None) -> GPUSpec | None:
    if device is None:
        return None
    if isinstance(device, GPUSpec):
        return device
    return get_device(device)


def spmm(
    a,
    b: np.ndarray,
    precision: Precision | str = Precision.FP16,
    coalesced: bool = True,
    device: str | GPUSpec | None = None,
    engine: str = "batched",
) -> SpmmResult:
    """Sparse × dense matrix multiplication with the FlashSparse kernel.

    Parameters
    ----------
    a:
        Sparse matrix (FlashSparseMatrix, CSRMatrix, scipy sparse, or dense
        ndarray that will be sparsified).  CSR inputs are translated to
        ME-BCRS through an LRU cache keyed by object identity; treat them as
        immutable after the first call (see :mod:`repro.formats.cache`).
    b:
        Dense right-hand side of shape ``(a.shape[1], N)``.
    precision:
        ``"fp16"`` (default) or ``"tf32"``.
    coalesced:
        Use the memory-efficient thread mapping (default True).
    device:
        Optional device name (``"h100"``, ``"rtx4090"``) or
        :class:`~repro.gpu.device.GPUSpec`; when given, the result carries an
        estimated runtime and GFLOPS.
    engine:
        ``"batched"`` (default) for the vectorized execution engine,
        ``"reference"`` for the per-block emulation loop.
    """
    inp = _as_input(a)
    config = FlashSparseConfig(precision=Precision(precision), coalesced=coalesced, engine=engine)
    fmt = inp.mebcrs(config.precision)
    result = spmm_flash_execute(fmt, b, config)
    spec = _resolve_device(device)
    if spec is not None:
        result.estimate = estimate_time(result.counter, spec, FLASH_SPMM_PROFILE)
    return result


def sddmm(
    mask,
    a: np.ndarray,
    b: np.ndarray,
    precision: Precision | str = Precision.FP16,
    scale_by_mask: bool = False,
    device: str | GPUSpec | None = None,
    engine: str = "batched",
) -> SddmmResult:
    """Sampled dense × dense matrix multiplication with the FlashSparse kernel.

    Computes ``out[i, j] = <a[i, :], b[j, :]>`` for every nonzero position of
    ``mask`` (optionally scaled by the mask's values).  ``engine`` selects the
    batched execution engine (default: one dot product per stored nonzero)
    or the reference emulation loop; values agree to FP32 round-off and the
    cost counter exactly.
    """
    inp = _as_input(mask)
    config = FlashSparseConfig(precision=Precision(precision), engine=engine)
    fmt = inp.mebcrs(config.precision)
    result = sddmm_flash_execute(fmt, a, b, config, scale_by_mask=scale_by_mask)
    spec = _resolve_device(device)
    if spec is not None:
        result.estimate = estimate_time(result.counter, spec, FLASH_SDDMM_PROFILE)
    return result


def spmm_cost(
    a,
    n_dense: int,
    precision: Precision | str = Precision.FP16,
    coalesced: bool = True,
) -> CostCounter:
    """Cost-only SpMM (no numeric result); see :func:`spmm`."""
    inp = _as_input(a)
    config = FlashSparseConfig(precision=Precision(precision), coalesced=coalesced)
    return spmm_flash_cost(inp.mebcrs(config.precision), n_dense, config)


def sddmm_cost(
    mask,
    k_dense: int,
    precision: Precision | str = Precision.FP16,
) -> CostCounter:
    """Cost-only SDDMM (no numeric result); see :func:`sddmm`."""
    inp = _as_input(mask)
    config = FlashSparseConfig(precision=Precision(precision))
    return sddmm_flash_cost(inp.mebcrs(config.precision), k_dense, config)


def start_server(
    device: str | GPUSpec | None = None,
    precision: Precision | str = Precision.FP16,
    workers: int | None = None,
    backend: str = "local",
    hosts: int | None = None,
    **kwargs,
):
    """Start a :class:`~repro.serve.server.Server` for this process.

    (Named ``start_server`` rather than ``serve`` because ``repro.serve``
    is the subsystem package — a same-named function on the package would
    be shadowed by the submodule binding on first import.)

    The returned server accepts concurrent :meth:`submit_spmm` /
    :meth:`submit_sddmm` calls, batches same-matrix requests, plans memory
    budgets from ``device`` (``workers`` divides the workspace into shards)
    and runs the shards in this process.  Use it as a context manager::

        with repro.start_server(device="rtx4090", workers=4) as server:
            fut = server.submit_spmm(matrix, b)
            result = fut.result()
        print(server.snapshot().latency_p95_s)

    ``backend="cluster"`` serves over ``hosts`` worker-host subprocesses
    instead (see :mod:`repro.cluster`): shard
    payloads travel a TCP transport, matrices route to hosts by content
    affinity, and a host death mid-request fails over to the survivors::

        with repro.start_server(backend="cluster", hosts=2) as server:
            result = server.submit_spmm(matrix, b).result()
        print(server.snapshot().meta["scheduler"]["failovers"])

    Extra keyword arguments are forwarded to the ``Server`` constructor
    (queue depth and admission policy, cluster options — see its docstring).
    """
    from repro.serve.server import Server

    return Server(
        device=device,
        precision=precision,
        workers=workers,
        backend=backend,
        hosts=hosts,
        **kwargs,
    )
