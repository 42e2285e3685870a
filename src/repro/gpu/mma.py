"""MMA / WMMA instruction semantics and register-fragment layouts.

FlashSparse's central trick — the swap-and-transpose MMA computation — is a
statement about how the two MMA operands and their per-thread register
fragments are laid out.  This module models that layer faithfully:

* the operand shapes used by FlashSparse and the baselines (Table 1 of the
  paper): ``m16n8k8`` / ``m16n8k16`` for FP16, ``m16n8k4`` / ``m16n8k8`` for
  TF32 on the MMA path, and ``m16n16k8`` TF32 on the WMMA path used by
  TC-GNN;
* the documented per-thread fragment ownership of each operand (PTX ISA,
  "Matrix Fragments for mma.m16n8k8" — reference [33] of the paper), exposed
  as :class:`FragmentLayout` objects so kernels and tests can scatter a tile
  to the 32 threads of a warp and gather it back;
* :func:`mma_execute`, which performs the actual multiply-accumulate with the
  proper precision emulation and charges one MMA invocation to a
  :class:`~repro.gpu.counters.CostCounter`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.gpu.counters import CostCounter
from repro.gpu.device import WARP_SIZE
from repro.precision.types import Precision, quantize


@dataclass(frozen=True)
class MMAShape:
    """An MMA operand-shape / precision combination.

    ``m``, ``n`` and ``k`` follow the usual convention: the instruction
    computes ``D[m,n] = A[m,k] @ B[k,n] + C[m,n]``.
    """

    name: str
    m: int
    n: int
    k: int
    precision: str  # "fp16" or "tf32"
    api: str = "mma"  # "mma" or "wmma"

    @property
    def a_shape(self) -> tuple[int, int]:
        """Shape of the left operand."""
        return (self.m, self.k)

    @property
    def b_shape(self) -> tuple[int, int]:
        """Shape of the right operand."""
        return (self.k, self.n)

    @property
    def c_shape(self) -> tuple[int, int]:
        """Shape of the accumulator/output."""
        return (self.m, self.n)

    @property
    def flops(self) -> int:
        """FLOPs performed by one invocation (multiply + add)."""
        return 2 * self.m * self.n * self.k

    @property
    def element_bytes(self) -> int:
        """Bytes per input element (FP16: 2, TF32: 4)."""
        return 2 if self.precision == "fp16" else 4

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


#: FP16 MMA, ``m16n8k8`` — the shape FlashSparse uses for FP16 (Section 2.1).
MMA_M16N8K8_FP16 = MMAShape("m16n8k8", 16, 8, 8, "fp16")
#: FP16 MMA, ``m16n8k16`` — the larger FP16 shape listed in Table 1.
MMA_M16N8K16_FP16 = MMAShape("m16n8k16", 16, 8, 16, "fp16")
#: TF32 MMA, ``m16n8k4`` — the shape FlashSparse uses for TF32.
MMA_M16N8K4_TF32 = MMAShape("m16n8k4", 16, 8, 4, "tf32")
#: TF32 MMA, ``m16n8k8`` — the shape DTC-SpMM uses.
MMA_M16N8K8_TF32 = MMAShape("m16n8k8", 16, 8, 8, "tf32")
#: TF32 WMMA, ``m16n16k8`` — the shape TC-GNN uses.
WMMA_M16N16K8_TF32 = MMAShape("m16n16k8", 16, 16, 8, "tf32", api="wmma")

SUPPORTED_SHAPES: tuple[MMAShape, ...] = (
    MMA_M16N8K8_FP16,
    MMA_M16N8K16_FP16,
    MMA_M16N8K4_TF32,
    MMA_M16N8K8_TF32,
    WMMA_M16N16K8_TF32,
)


#: The instruction FlashSparse's 8×1 swap-and-transpose kernels issue, by
#: ``(precision, api)``: ``m16n8k8`` FP16 and ``m16n8k4`` TF32 (Section
#: 2.1), so the sparse TC block is 8×8 / 8×4.
FLASH_SHAPES: dict[tuple[Precision, str], MMAShape] = {
    (Precision.FP16, "mma"): MMA_M16N8K8_FP16,
    (Precision.TF32, "mma"): MMA_M16N8K4_TF32,
}

#: The instructions of the prior 16×1 approaches, by ``(precision, api)``:
#: DTC-SpMM issues ``mma.m16n8k8`` TF32, TC-GNN the WMMA ``m16n16k8`` (TF32
#: only); the FP16 row is the ablation baseline of Figure 14.  Every row
#: has ``k = 8``.
TCU16_SHAPES: dict[tuple[Precision, str], MMAShape] = {
    (Precision.FP16, "mma"): MMA_M16N8K8_FP16,
    (Precision.TF32, "mma"): MMA_M16N8K8_TF32,
    (Precision.TF32, "wmma"): WMMA_M16N16K8_TF32,
}


def block_k(shapes: Mapping[tuple[Precision, str], MMAShape], precision: Precision | str) -> int:
    """The TC-block width ``k`` of the ``mma`` instruction ``shapes`` issue
    at ``precision``.  FP32 is no tensor-core precision (the CSR baselines
    serve it); format experiments at FP32 take the FP16 row."""
    shape = shapes.get((Precision(precision), "mma")) or shapes[Precision.FP16, "mma"]
    return shape.k


# --------------------------------------------------------------------------
# Fragment layouts
# --------------------------------------------------------------------------
@dataclass(frozen=True)
class FragmentLayout:
    """Per-thread ownership map of one MMA operand within a warp.

    ``rows``/``cols`` have shape ``(32, elements_per_thread)``:
    ``rows[lane, e]`` / ``cols[lane, e]`` give the tile coordinates of the
    ``e``-th register element held by ``lane``.
    """

    operand: str  # "a", "b" or "c"
    shape: MMAShape
    rows: np.ndarray
    cols: np.ndarray

    @property
    def elements_per_thread(self) -> int:
        """Number of tile elements each thread holds in registers."""
        return int(self.rows.shape[1])

    def coordinates(self, lane: int) -> list[tuple[int, int]]:
        """The (row, col) coordinates owned by ``lane``."""
        return [
            (int(r), int(c)) for r, c in zip(self.rows[lane], self.cols[lane])
        ]


def _layout_from_rule(operand: str, shape: MMAShape, rows: list[list[int]], cols: list[list[int]]) -> FragmentLayout:
    return FragmentLayout(
        operand=operand,
        shape=shape,
        rows=np.asarray(rows, dtype=np.int64),
        cols=np.asarray(cols, dtype=np.int64),
    )


def _lanes() -> tuple[np.ndarray, np.ndarray]:
    lanes = np.arange(WARP_SIZE)
    group = lanes // 4  # "groupID" in the PTX documentation
    tig = lanes % 4  # "threadID_in_group"
    return group, tig


def layout_a(shape: MMAShape) -> FragmentLayout:
    """Fragment layout of the left (A) operand for ``shape``.

    Follows the PTX ISA fragment tables for the MMA shapes.  For the WMMA
    shape (whose fragment layout is opaque on real hardware) a canonical
    row-major distribution is used; the simulator only needs it to be a
    bijection, which tests verify.
    """
    group, tig = _lanes()
    rows: list[list[int]] = []
    cols: list[list[int]] = []
    if shape is MMA_M16N8K8_FP16 or (shape.name, shape.precision) == ("m16n8k8", "fp16"):
        for g, t in zip(group, tig):
            rows.append([g, g, g + 8, g + 8])
            cols.append([t * 2, t * 2 + 1, t * 2, t * 2 + 1])
    elif (shape.name, shape.precision) == ("m16n8k16", "fp16"):
        for g, t in zip(group, tig):
            rows.append([g, g, g + 8, g + 8, g, g, g + 8, g + 8])
            cols.append([t * 2, t * 2 + 1, t * 2, t * 2 + 1,
                         t * 2 + 8, t * 2 + 9, t * 2 + 8, t * 2 + 9])
    elif (shape.name, shape.precision) == ("m16n8k4", "tf32"):
        for g, t in zip(group, tig):
            rows.append([g, g + 8])
            cols.append([t, t])
    elif (shape.name, shape.precision) == ("m16n8k8", "tf32"):
        for g, t in zip(group, tig):
            rows.append([g, g + 8, g, g + 8])
            cols.append([t, t, t + 4, t + 4])
    elif shape.api == "wmma":
        return _canonical_layout("a", shape, shape.a_shape)
    else:  # pragma: no cover - defensive
        raise KeyError(f"no A-fragment layout for {shape}")
    return _layout_from_rule("a", shape, rows, cols)


def layout_b(shape: MMAShape) -> FragmentLayout:
    """Fragment layout of the right (B) operand for ``shape``."""
    group, tig = _lanes()
    rows: list[list[int]] = []
    cols: list[list[int]] = []
    if (shape.name, shape.precision) == ("m16n8k8", "fp16"):
        for g, t in zip(group, tig):
            rows.append([t * 2, t * 2 + 1])
            cols.append([g, g])
    elif (shape.name, shape.precision) == ("m16n8k16", "fp16"):
        for g, t in zip(group, tig):
            rows.append([t * 2, t * 2 + 1, t * 2 + 8, t * 2 + 9])
            cols.append([g, g, g, g])
    elif (shape.name, shape.precision) == ("m16n8k4", "tf32"):
        for g, t in zip(group, tig):
            rows.append([t])
            cols.append([g])
    elif (shape.name, shape.precision) == ("m16n8k8", "tf32"):
        for g, t in zip(group, tig):
            rows.append([t, t + 4])
            cols.append([g, g])
    elif shape.api == "wmma":
        return _canonical_layout("b", shape, shape.b_shape)
    else:  # pragma: no cover - defensive
        raise KeyError(f"no B-fragment layout for {shape}")
    return _layout_from_rule("b", shape, rows, cols)


def layout_c(shape: MMAShape) -> FragmentLayout:
    """Fragment layout of the accumulator (C/D) operand for ``shape``.

    For all ``m16n8`` MMA shapes the accumulator layout is identical: each
    thread holds four FP32 values c0..c3, with c0/c1 on row ``groupID`` and
    c2/c3 on row ``groupID + 8``, columns ``threadID_in_group*2 + {0,1}``.
    """
    group, tig = _lanes()
    if shape.api == "wmma":
        return _canonical_layout("c", shape, shape.c_shape)
    rows: list[list[int]] = []
    cols: list[list[int]] = []
    for g, t in zip(group, tig):
        rows.append([g, g, g + 8, g + 8])
        cols.append([t * 2, t * 2 + 1, t * 2, t * 2 + 1])
    return _layout_from_rule("c", shape, rows, cols)


def _canonical_layout(operand: str, shape: MMAShape, tile_shape: tuple[int, int]) -> FragmentLayout:
    """Row-major round-robin distribution used for the opaque WMMA fragments."""
    n_rows, n_cols = tile_shape
    total = n_rows * n_cols
    if total % WARP_SIZE != 0:
        raise ValueError(f"tile of {total} elements cannot be split over a warp")
    per_thread = total // WARP_SIZE
    flat = np.arange(total)
    rows = (flat // n_cols).reshape(WARP_SIZE, per_thread)
    cols = (flat % n_cols).reshape(WARP_SIZE, per_thread)
    return FragmentLayout(operand=operand, shape=shape, rows=rows, cols=cols)


def distribute_fragment(tile: np.ndarray, layout: FragmentLayout) -> np.ndarray:
    """Scatter a full tile into per-thread register fragments.

    Returns an array of shape ``(32, elements_per_thread)`` where row ``lane``
    holds the elements owned by that lane.
    """
    tile = np.asarray(tile)
    expected = {
        "a": layout.shape.a_shape,
        "b": layout.shape.b_shape,
        "c": layout.shape.c_shape,
    }[layout.operand]
    if tile.shape != expected:
        raise ValueError(
            f"operand {layout.operand!r} of {layout.shape.name} must have shape "
            f"{expected}, got {tile.shape}"
        )
    return tile[layout.rows, layout.cols]


def gather_fragment(fragments: np.ndarray, layout: FragmentLayout) -> np.ndarray:
    """Inverse of :func:`distribute_fragment`: rebuild the tile from fragments."""
    fragments = np.asarray(fragments)
    if fragments.shape != layout.rows.shape:
        raise ValueError(
            f"fragments must have shape {layout.rows.shape}, got {fragments.shape}"
        )
    expected = {
        "a": layout.shape.a_shape,
        "b": layout.shape.b_shape,
        "c": layout.shape.c_shape,
    }[layout.operand]
    tile = np.zeros(expected, dtype=fragments.dtype)
    tile[layout.rows, layout.cols] = fragments
    return tile


# --------------------------------------------------------------------------
# Execution
# --------------------------------------------------------------------------
def mma_execute(
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray | None,
    shape: MMAShape,
    counter: CostCounter | None = None,
) -> np.ndarray:
    """Execute one MMA: ``D = quantize(A) @ quantize(B) + C``.

    Inputs are quantized to the shape's precision (FP16 or TF32); the
    multiply-accumulate itself happens in FP32, matching tensor-core
    behaviour (FP32 accumulators).  The optional ``counter`` is charged one
    MMA invocation.

    Parameters
    ----------
    a, b:
        Operands of shapes ``(m, k)`` and ``(k, n)``.
    c:
        Accumulator of shape ``(m, n)`` or ``None`` for a zero accumulator.
    shape:
        The instruction variant being issued.
    counter:
        Cost counter to charge; optional.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != shape.a_shape:
        raise ValueError(f"A must have shape {shape.a_shape}, got {a.shape}")
    if b.shape != shape.b_shape:
        raise ValueError(f"B must have shape {shape.b_shape}, got {b.shape}")
    if c is None:
        c = np.zeros(shape.c_shape, dtype=np.float32)
    else:
        c = np.asarray(c, dtype=np.float32)
        if c.shape != shape.c_shape:
            raise ValueError(f"C must have shape {shape.c_shape}, got {c.shape}")

    precision = Precision(shape.precision)
    a_q = quantize(a, precision)
    b_q = quantize(b, precision)
    d = (a_q @ b_q).astype(np.float32) + c

    if counter is not None:
        counter.add_mma(shape.name, shape.precision)
    return d


def mma_execute_swapped(
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray | None,
    shape: MMAShape,
    counter: CostCounter | None = None,
) -> np.ndarray:
    """Execute ``A @ B`` through the swap-and-transpose identity.

    This is the FlashSparse Equation (1): ``A × B = (Bᵀ × Aᵀ)ᵀ``.  Here ``A``
    is the logical *sparse* tile of shape ``(n, k)`` (8×8 for FP16, 8×4 for
    TF32) and ``B`` is the logical *dense* tile of shape ``(k, m)``; the MMA
    is issued with ``Bᵀ`` as its left operand and ``Aᵀ`` as its right
    operand, and the result ``Cᵀ`` is transposed back before being returned.

    Parameters
    ----------
    a:
        The sparse TC block, logical shape ``(shape.n, shape.k)``.
    b:
        The dense TC block, logical shape ``(shape.k, shape.m)``.
    c:
        Logical accumulator of shape ``(shape.n, shape.m)`` or ``None``.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != (shape.n, shape.k):
        raise ValueError(
            f"swapped A (sparse tile) must have shape {(shape.n, shape.k)}, got {a.shape}"
        )
    if b.shape != (shape.k, shape.m):
        raise ValueError(
            f"swapped B (dense tile) must have shape {(shape.k, shape.m)}, got {b.shape}"
        )
    c_t = None if c is None else np.asarray(c, dtype=np.float32).T
    # left operand of the hardware MMA: B^T (m x k); right operand: A^T (k x n)
    d_t = mma_execute(b.T, a.T, c_t, shape, counter)
    return d_t.T
