"""Patch extraction.

Two ways to cut the (N, 150) input matrix into patches: multi-CIR patches
take the same column block of every row (height N, width L_patch), per-CIR
patches take L_patch consecutive samples from a single row. The model maps
each patch through one shared linear layer to a d_model-dimensional token.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cir import WINDOW_LENGTH, InputTensor
from .errors import ConfigError, IncompatibleOrderingError

PATCH_STRATEGIES = ("multi_cir", "per_cir")


def check_l_patch(l_patch: int):
    if l_patch < 1 or WINDOW_LENGTH % l_patch != 0:
        raise ConfigError(f"l_patch must divide {WINDOW_LENGTH}, got {l_patch}")


@dataclass(frozen=True)
class PatchSet:
    """Flattened patches plus per-patch provenance.

    ``row_index`` is -1 where a patch spans all rows (multi-CIR);
    ``anchor_positions`` and ``rx_times`` are NaN where a patch is not tied
    to a single anchor or the source row is a zero-padded absent anchor.
    """

    values: np.ndarray  # (n_patches, patch_size)
    row_index: np.ndarray  # (n_patches,)
    patch_j: np.ndarray  # (n_patches,) column-block index within a CIR
    anchor_positions: np.ndarray  # (n_patches, 3)
    rx_times: np.ndarray  # (n_patches,)
    strategy: str
    k_per_cir: int
    n_rows: int

    @property
    def n_patches(self) -> int:
        return self.values.shape[0]


def patch_multi_cir(m: InputTensor, l_patch: int) -> PatchSet:
    """K = 150/l_patch patches, each the same column block of every row."""
    check_l_patch(l_patch)
    if not m.padded:
        raise IncompatibleOrderingError(
            "multi-CIR patching needs a zero-padded tensor with one row per "
            "environment anchor; rebuild with fixed ordering or pad_missing"
        )
    k = WINDOW_LENGTH // l_patch
    values = np.stack(
        [m.values[:, j * l_patch : (j + 1) * l_patch].reshape(-1) for j in range(k)]
    )
    nan3 = np.full((k, 3), np.nan)
    return PatchSet(
        values=values,
        row_index=np.full(k, -1, dtype=int),
        patch_j=np.arange(k, dtype=int),
        anchor_positions=nan3,
        rx_times=np.full(k, np.nan),
        strategy="multi_cir",
        k_per_cir=k,
        n_rows=m.n_rows,
    )


def patch_per_cir(m: InputTensor, l_patch: int) -> PatchSet:
    """N*K single-anchor patches in row-major order.

    Patch k comes from row i = k // K, column block j = k % K.
    """
    check_l_patch(l_patch)
    k = WINDOW_LENGTH // l_patch
    n = m.n_rows
    values = m.values.reshape(n * k, l_patch)
    rows = np.repeat(np.arange(n, dtype=int), k)
    return PatchSet(
        values=values,
        row_index=rows,
        patch_j=np.tile(np.arange(k, dtype=int), n),
        anchor_positions=m.anchor_positions[rows],
        rx_times=m.rx_times[rows],
        strategy="per_cir",
        k_per_cir=k,
        n_rows=n,
    )
