"""Seeded benchmark inputs: the ``repro.graph.datasets`` stand-ins, relabelled.

Seed 0 is the recipe output itself, bit for bit. A seed s > 0 applies a
seeded random permutation to the vertex ids, so every run on every seed
does the same work on an isomorphic graph. Relabelling changes what an
implementation may wrongly rely on (id order, the dense blobs sitting on
ids 0..k, hash placement) but no graph invariant, so the pinned oracle
values in ``oracle.py`` hold for every seed and need no recomputation;
structure-changing seeds would instead move each query's work (cut
counts, core sizes) and need a fresh exact oracle per run.

``check_input`` proves both halves on every run, outside the timed
region: the recipe still hashes to the pinned digest (so numbers stay
comparable across commits), and the seeded frame maps back onto it row
for row through the inverse permutation (so the oracle values apply).
"""
from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd

from repro.graph import datasets

# SHA-256 of the recipe's (src, dst) int64 rows, C order.
DIGESTS = {
    "as733": "b4153a369197591b6860fe4a745b99a9c5d0ec0a7a81fa81282fca0aa13a08e7",
    "netscience": "e13dd9492dc43a2737922e555e44232e9ff103d7244562982dd33f49cfc31690",
}


def _rows(pdf: pd.DataFrame) -> np.ndarray:
    return np.ascontiguousarray(pdf[["src", "dst"]].to_numpy(np.int64))


def digest(pdf: pd.DataFrame) -> str:
    return hashlib.sha256(_rows(pdf).tobytes()).hexdigest()


def permutation(n_ids: int, seed: int) -> np.ndarray:
    """perm[old_id] = new_id; the identity for seed 0."""
    if seed == 0:
        return np.arange(n_ids, dtype=np.int64)
    return np.random.default_rng(seed).permutation(n_ids).astype(np.int64)


def seeded_edges(name: str, seed: int) -> tuple:
    """(edge frame, perm): the stand-in ``name`` relabelled by ``seed``.

    Rows keep the recipe's order; each row is re-canonicalised to
    src < dst after relabelling, as the recipes emit them.
    """
    pdf = datasets.dataset_pandas(name)
    if seed == 0:
        return pdf, permutation(int(_rows(pdf).max()) + 1, 0)
    rows = _rows(pdf)
    perm = permutation(int(rows.max()) + 1, seed)
    new = perm[rows]
    out = pd.DataFrame({"src": new.min(axis=1), "dst": new.max(axis=1)})
    return out, perm


def check_input(name: str, seed: int, pdf: pd.DataFrame, perm: np.ndarray) -> None:
    """Raise ValueError unless ``pdf`` is the pinned recipe relabelled by ``perm``."""
    recipe = datasets.dataset_pandas(name)
    if digest(recipe) != DIGESTS[name]:
        raise ValueError(f"{name}: recipe no longer matches its pinned digest")
    if seed == 0:
        if not pdf.equals(recipe):
            raise ValueError(f"{name}: seed 0 differs from datasets.dataset_pandas")
        return
    if len(np.unique(perm)) != len(perm):
        raise ValueError(f"{name}: seed {seed} relabelling is not a bijection")
    inv = np.empty_like(perm)
    inv[perm] = np.arange(len(perm), dtype=np.int64)
    back = inv[_rows(pdf)]
    back = np.stack([back.min(axis=1), back.max(axis=1)], axis=1)
    if not np.array_equal(back, _rows(recipe)):
        raise ValueError(f"{name}: seed {seed} input is not a relabelling of the recipe")
