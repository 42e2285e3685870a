"""Composable layer programs: the unit of serving for whole GNN layers.

A GAT/AGNN-style attention layer is a fixed pipeline over one sparse
pattern — SDDMM (per-edge logits), an optional scalar scale, a per-row
edge softmax, and an SpMM whose values are the attention weights.  Served
one kernel at a time that costs **three** request cycles per layer, each
re-gathering dense operands, re-acquiring the translation and — on the
cluster backend — paying a full head↔worker round trip.  This module
defines the program representation the whole stack fuses on:

* :class:`LayerStep` / :class:`LayerProgram` — an ordered pipeline of
  ``sddmm`` / ``scale`` / ``edge_softmax`` / ``spmm`` steps with validated
  operand wiring.  Validation canonicalises the program to the
  ``(scale, scale_by_mask)`` pair the fused engine hook
  (:func:`repro.kernels.engine.layer_shard_rows`) executes, so a malformed
  wiring (softmax before the logits exist, a dangling operand name, two
  SpMMs) fails at submit time, not inside a worker process.
* :func:`gather_edge_values` / :func:`attention_csr` — the two
  representational hops the *composed* execution needs (SDDMM's
  nonzero-vector output → CSR edge order → a values-only CSR rebuild for
  the SpMM).  The served-composed GNN path and the parity tests share
  these, so "composed" means exactly one thing everywhere.

The program is deliberately small: steps carry operand *names* (``"a"``,
``"b"``, ``"x"``), the dense panels themselves travel separately (and, on
the cluster, ride the content-addressed pinned store so a layer's panels
ship once per host).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.formats.csr import CSRMatrix
from repro.formats.windows import WindowPartition

#: Step kinds a layer program may contain.
LAYER_STEP_OPS = ("sddmm", "scale", "edge_softmax", "spmm")

#: Dense operand names a program may wire (the panels travel separately).
LAYER_OPERANDS = ("a", "b", "x")


class ProgramError(ValueError):
    """A layer program failed validation (bad step order or operand wiring)."""


@dataclass(frozen=True)
class LayerStep:
    """One step of a layer program.

    ``op`` is one of :data:`LAYER_STEP_OPS`; ``params`` carries the step's
    scalar knobs (``sddmm``: ``a``/``b`` operand names + ``scale_by_mask``;
    ``scale``: ``value``; ``spmm``: ``x`` operand name).
    """

    op: str
    params: dict = field(default_factory=dict)

    def to_wire(self) -> dict:
        """JSON-safe form (the ``layer_task`` header embeds it)."""
        return {"op": self.op, "params": dict(self.params)}

    @classmethod
    def from_wire(cls, payload: dict) -> "LayerStep":
        """Rebuild from :meth:`to_wire` output."""
        return cls(op=str(payload["op"]), params=dict(payload.get("params", {})))


@dataclass(frozen=True)
class LayerProgram:
    """An ordered, validated pipeline of layer steps.

    The canonical attention-layer shape — and the only one the fused
    engine hook executes — is::

        sddmm(a, b) → [scale(value)]* → edge_softmax() → spmm(x)

    :meth:`validate` enforces it and folds consecutive ``scale`` steps into
    one float, so every executor downstream (in-process, multiprocess
    shards, cluster ``layer_task``) consumes the same
    ``(scale, scale_by_mask)`` canonical form via :meth:`canonical`.
    """

    steps: tuple[LayerStep, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", tuple(self.steps))
        self.validate()

    # ---------------------------------------------------------- constructors
    @classmethod
    def attention_layer(
        cls, scale: float | None = None, scale_by_mask: bool = False
    ) -> "LayerProgram":
        """The standard attention layer: ``sddmm → [scale] → softmax → spmm``."""
        steps: list[LayerStep] = [
            LayerStep("sddmm", {"a": "a", "b": "b", "scale_by_mask": bool(scale_by_mask)})
        ]
        if scale is not None:
            steps.append(LayerStep("scale", {"value": float(scale)}))
        steps.append(LayerStep("edge_softmax", {}))
        steps.append(LayerStep("spmm", {"x": "x"}))
        return cls(steps=tuple(steps))

    # ------------------------------------------------------------ validation
    def validate(self) -> None:
        """Check step order and operand wiring; raises :class:`ProgramError`."""
        steps = self.steps
        if not steps:
            raise ProgramError("a layer program needs at least one step")
        for step in steps:
            if not isinstance(step, LayerStep):
                raise ProgramError(f"steps must be LayerStep, got {type(step).__name__}")
            if step.op not in LAYER_STEP_OPS:
                raise ProgramError(
                    f"unknown step op {step.op!r}; expected one of {LAYER_STEP_OPS}"
                )
        if steps[0].op != "sddmm":
            raise ProgramError(
                "a layer program must start with 'sddmm' (the edge-logit producer); "
                f"got {steps[0].op!r}"
            )
        if steps[-1].op != "spmm":
            raise ProgramError(
                "a layer program must end with 'spmm' (the aggregation); "
                f"got {steps[-1].op!r}"
            )
        ops = [s.op for s in steps]
        if ops.count("sddmm") != 1 or ops.count("spmm") != 1:
            raise ProgramError("a layer program has exactly one 'sddmm' and one 'spmm'")
        if ops.count("edge_softmax") != 1:
            raise ProgramError("a layer program has exactly one 'edge_softmax'")
        softmax_at = ops.index("edge_softmax")
        if softmax_at != len(ops) - 2:
            raise ProgramError("'edge_softmax' must immediately precede 'spmm'")
        for i, step in enumerate(steps[1:softmax_at], start=1):
            if step.op != "scale":
                raise ProgramError(
                    f"only 'scale' steps may appear between 'sddmm' and "
                    f"'edge_softmax'; step {i} is {step.op!r}"
                )
            value = step.params.get("value")
            if value is None or not np.isfinite(float(value)):
                raise ProgramError(f"scale step {i} needs a finite 'value'")
        # Operand wiring: every name a step references must be a known panel.
        sddmm = steps[0].params
        for name in ("a", "b"):
            wired = sddmm.get(name, name)
            if wired not in LAYER_OPERANDS:
                raise ProgramError(
                    f"sddmm operand {name!r} wired to unknown panel {wired!r}"
                )
        spmm_x = steps[-1].params.get("x", "x")
        if spmm_x not in LAYER_OPERANDS:
            raise ProgramError(f"spmm operand 'x' wired to unknown panel {spmm_x!r}")

    def canonical(self) -> tuple[float | None, bool]:
        """The executable ``(scale, scale_by_mask)`` form.

        Consecutive ``scale`` steps fold into one float (scalar multiplies
        commute in FP32 only when folded *as written*, so folding happens
        in float32 to keep the program's numerics explicit).
        """
        scale: float | None = None
        for step in self.steps:
            if step.op == "scale":
                value = np.float32(step.params["value"])
                scale = float(value) if scale is None else float(np.float32(scale) * value)
        return scale, bool(self.steps[0].params.get("scale_by_mask", False))

    def operand_names(self) -> tuple[str, str, str]:
        """The wired panel names ``(a, b, x)``."""
        sddmm = self.steps[0].params
        return (
            str(sddmm.get("a", "a")),
            str(sddmm.get("b", "b")),
            str(self.steps[-1].params.get("x", "x")),
        )

    # ------------------------------------------------------------------ wire
    def to_wire(self) -> list[dict]:
        """JSON-safe form for the ``layer_task`` header."""
        return [step.to_wire() for step in self.steps]

    @classmethod
    def from_wire(cls, payload: list[dict]) -> "LayerProgram":
        """Rebuild (and re-validate) from :meth:`to_wire` output."""
        return cls(steps=tuple(LayerStep.from_wire(item) for item in payload))


# ---------------------------------------------------------------------------
# Composed-execution helpers (the three-round-trip reference path)
# ---------------------------------------------------------------------------


def gather_edge_values(
    partition: WindowPartition, indptr: np.ndarray, vector_values: np.ndarray
) -> np.ndarray:
    """SDDMM output (nonzero-vector layout) → CSR edge order.

    A gather through the translation's entry map
    (``vector_values.reshape(-1)[partition.entry_slot]``), so explicit zeros
    survive and the entry order is the CSR's — unlike
    ``BlockedVectorFormat.to_csr``, which drops stored zeros.  ``indptr`` is
    the CSR's row layout, checked against the partition's ``nnz``.  Returns
    the ``(nnz,)`` float32 per-edge values.
    """
    if int(indptr[-1]) != partition.nnz:
        raise ValueError(f"indptr holds {int(indptr[-1])} entries, the partition {partition.nnz}")
    flat = np.asarray(vector_values).reshape(-1)
    return np.asarray(flat[partition.entry_slot], dtype=np.float32)


def attention_csr(csr: CSRMatrix, data: np.ndarray) -> CSRMatrix:
    """A CSR with ``csr``'s pattern and ``data`` as values (attention matrix).

    The composed path feeds this to the SpMM stage; its content key differs
    from the mask's (the values differ per layer evaluation), which is why
    composed cluster serving re-ships an attention bundle every time while
    the fused path ships nothing.
    """
    data = np.ascontiguousarray(np.asarray(data, dtype=np.float32))
    if data.shape != (csr.nnz,):
        raise ValueError(f"data must have shape ({csr.nnz},), got {data.shape}")
    return CSRMatrix(csr.indptr, csr.indices, data, csr.shape)


def composed_intermediate_bytes(fmt, csr: CSRMatrix) -> int:
    """Bytes a fused layer keeps off the carrier versus the composed path.

    Composition pulls the SDDMM intermediate back (float32 values in
    ``fmt``'s vector layout) and pushes the :func:`attention_csr` bundle
    out again — never pinnable, its values change every evaluation.
    """
    return (
        int(fmt.vector_values.shape[0]) * fmt.vector_size * 4
        + int(csr.indptr.nbytes)
        + int(csr.indices.nbytes)
        + int(csr.nnz) * 4
    )


@dataclass
class LayerResult:
    """Result of a fused-layer request: the layer's dense output rows."""

    #: Dense layer output ``spmm(softmax(scale · sddmm(a, b)), x)`` (float32).
    values: np.ndarray
    #: Useful FLOPs of the whole pipeline (SDDMM + softmax + SpMM).
    useful_flops: int
    #: Per-stage wall clock, backend, coalescing info.
    meta: dict = field(default_factory=dict)


@dataclass
class EdgeSoftmaxResult:
    """Result of a served per-row edge softmax over a matrix's pattern."""

    #: Per-edge attention weights in CSR entry order, ``(nnz,)`` float32.
    values: np.ndarray
    #: Useful FLOPs (max, subtract, exp, sum, divide — ~5 per edge).
    useful_flops: int
    meta: dict = field(default_factory=dict)


@dataclass
class SegmentMatmulResult:
    """Result of a served :func:`repro.ops.segment_matmul` request."""

    #: Stacked ``(total, N)`` product (uniform-width weights).
    values: np.ndarray
    #: Useful FLOPs (``2 · Σ_s len_s · K · N_s``).
    useful_flops: int
    meta: dict = field(default_factory=dict)
