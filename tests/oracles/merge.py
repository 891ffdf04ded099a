"""Merge oracle: one stable ``lexsort`` of the chunks as given."""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["sorted_rows_reference"]


def sorted_rows_reference(chunks: Sequence[np.ndarray]) -> np.ndarray:
    """Concatenate chunk rows in merged-file order, ``(isep, irot, igamma)``.

    Works on either record dtype (float64 or packed): both name the three
    integer key columns the same, and the sort never touches the rest.
    """
    rows = np.concatenate(chunks)
    return rows[np.lexsort((rows["igamma"], rows["irot"], rows["isep"]))]
