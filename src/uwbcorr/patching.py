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
    """Flattened patches. A per-CIR patch's source anchor and reception time
    are those of tensor row ``patch // K``; multi-CIR patches have none."""

    values: np.ndarray  # (n_patches, patch_size)

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
    return PatchSet(values=values)


def patch_per_cir(m: InputTensor, l_patch: int) -> PatchSet:
    """N*K single-anchor patches in row-major order.

    Patch k comes from row i = k // K, column block j = k % K.
    """
    check_l_patch(l_patch)
    k = WINDOW_LENGTH // l_patch
    return PatchSet(values=m.values.reshape(m.n_rows * k, l_patch))
