"""Agglomerative clustering and dendrograms — the phylogeny of Fig. 6.

The paper builds a dendrogram over annotated clusters using the custom
distance metric (Eq. 1) to reveal "the phylogenetic relationship between
variants of memes".  This module implements agglomerative clustering from
scratch over an arbitrary precomputed distance matrix with single /
complete / average linkage (Lance–Williams updates), plus utilities to cut
the tree at a height (the red κ line in Fig. 6) and to render it as ASCII
or Newick for inspection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["MergeStep", "Dendrogram", "agglomerate", "cut_dendrogram"]


@dataclass(frozen=True)
class MergeStep:
    """One merge of the agglomeration: clusters ``left``/``right`` at ``height``.

    Node ids follow scipy's convention: leaves are ``0..n-1``; the cluster
    created by merge ``k`` has id ``n + k``.
    """

    left: int
    right: int
    height: float
    size: int


@dataclass(frozen=True)
class Dendrogram:
    """The full merge history over ``n_leaves`` items."""

    n_leaves: int
    merges: tuple[MergeStep, ...]
    labels: tuple[str, ...]

    def to_newick(self) -> str:
        """Render as a Newick tree string with merge heights as lengths."""

        def render(node: int, parent_height: float) -> str:
            if node < self.n_leaves:
                return f"{self.labels[node]}:{parent_height:.4f}"
            step = self.merges[node - self.n_leaves]
            left = render(step.left, parent_height - step.height)
            right = render(step.right, parent_height - step.height)
            return f"({left},{right}):{step.height:.4f}"

        if not self.merges:
            return f"{self.labels[0]};" if self.n_leaves == 1 else ";"
        root = self.n_leaves + len(self.merges) - 1
        top = self.merges[-1].height
        return render(root, top) + ";"

    def to_ascii(self, *, max_label: int = 24) -> str:
        """A compact textual dendrogram: one line per merge, indented."""
        lines = []
        for k, step in enumerate(self.merges):
            left_desc = self._describe(step.left, max_label)
            right_desc = self._describe(step.right, max_label)
            lines.append(
                f"[{self.n_leaves + k}] h={step.height:.3f} "
                f"({step.size}) <- {left_desc} + {right_desc}"
            )
        return "\n".join(lines)

    def _describe(self, node: int, max_label: int) -> str:
        if node < self.n_leaves:
            return self.labels[node][:max_label]
        return f"[{node}]"


def agglomerate(
    distances: np.ndarray,
    *,
    linkage: str = "average",
    labels: list[str] | tuple[str, ...] | None = None,
) -> Dendrogram:
    """Agglomerative clustering over a symmetric distance matrix.

    Parameters
    ----------
    distances:
        ``(n, n)`` symmetric matrix with zero diagonal.
    linkage:
        ``"single"``, ``"complete"`` or ``"average"`` (UPGMA).
    labels:
        Optional leaf labels (default ``"0".."n-1"``).
    """
    matrix = np.array(distances, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("distances must be a square matrix")
    if not np.allclose(matrix, matrix.T, atol=1e-9):
        raise ValueError("distances must be symmetric")
    if linkage not in ("single", "complete", "average"):
        raise ValueError(f"unknown linkage {linkage!r}")
    n = matrix.shape[0]
    if labels is None:
        labels = tuple(str(i) for i in range(n))
    else:
        labels = tuple(labels)
        if len(labels) != n:
            raise ValueError("labels must match the matrix size")
    if n == 0:
        raise ValueError("cannot agglomerate zero items")

    np.fill_diagonal(matrix, np.inf)
    active = list(range(n))  # positions into `matrix`
    node_of = list(range(n))  # current node id at each active position
    sizes = [1] * n
    merges: list[MergeStep] = []

    for k in range(n - 1):
        # Find the closest active pair.
        sub = matrix[np.ix_(active, active)]
        flat = int(np.argmin(sub))
        ai, bi = divmod(flat, len(active))
        if ai > bi:
            ai, bi = bi, ai
        pa, pb = active[ai], active[bi]
        height = float(matrix[pa, pb])
        size = sizes[pa] + sizes[pb]
        merges.append(
            MergeStep(
                left=node_of[pa], right=node_of[pb], height=height, size=size
            )
        )
        # Lance-Williams update into position pa; retire pb.
        for pc in active:
            if pc in (pa, pb):
                continue
            d_ac, d_bc = matrix[pa, pc], matrix[pb, pc]
            if linkage == "single":
                new = min(d_ac, d_bc)
            elif linkage == "complete":
                new = max(d_ac, d_bc)
            else:
                new = (sizes[pa] * d_ac + sizes[pb] * d_bc) / size
            matrix[pa, pc] = matrix[pc, pa] = new
        sizes[pa] = size
        node_of[pa] = n + k
        active.pop(bi)

    return Dendrogram(n_leaves=n, merges=tuple(merges), labels=labels)


def cut_dendrogram(dendrogram: Dendrogram, height: float) -> np.ndarray:
    """Flat cluster labels from cutting the tree at ``height``.

    Merges with ``merge.height <= height`` are kept; the resulting forest's
    components become clusters.  Returns ``int64`` labels ``0..k-1`` in
    order of first leaf appearance.
    """
    n = dendrogram.n_leaves
    parent = list(range(n + len(dendrogram.merges)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for k, step in enumerate(dendrogram.merges):
        if step.height <= height:
            node = n + k
            for child in (step.left, step.right):
                parent[find(child)] = find(node)

    labels = np.empty(n, dtype=np.int64)
    seen: dict[int, int] = {}
    for leaf in range(n):
        root = find(leaf)
        if root not in seen:
            seen[root] = len(seen)
        labels[leaf] = seen[root]
    return labels
