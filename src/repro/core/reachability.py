"""Incremental transitive closure: the heart of ROCoCo (section 4.1).

ROCoCo validates acyclicity of the R/W-dependency relation without
timestamps by maintaining the *reachability matrix* R of the committed
transaction DAG and extending it one transaction at a time:

* **Warshall's fact** (forward): ``t`` reaches ``t_i`` iff
  ``t -> t_i`` directly, or ``t -> t_j`` and ``t_j`` reaches ``t_i``.
  Vectorized: ``p = f | R^T f`` (the *proceeding* vector).
* **Dual fact** (backward): ``t`` is reachable from ``t_i`` iff
  ``t_i -> t`` directly, or ``t_i`` reaches some ``t_j`` with
  ``t_j -> t``.  Vectorized: ``s = b | R b`` (the *succeeding* vector).
* **Cycle test**: committing ``t`` would close a cycle iff some
  committed ``t_i`` both precedes and succeeds ``t``:
  ``p & s != 0`` — an O(1)-depth wide AND/OR in hardware.
* **Closure update** on commit: ``p`` and ``s`` become the new row and
  column, and every old entry picks up the new paths *through* t:
  ``r[i][j] |= s[i] & p[j]`` (an outer product, one cycle in the 2D
  registers).

Note on the paper's notation: the inline formulas in section 4.1 index
``r[i][j]`` with the opposite convention from their own matrix forms
``p = f + R^T f`` / ``s = b + R b``; we follow the matrix forms, which
are the self-consistent ones (and the ones Fig. 4 depicts).

This module implements the *unbounded* validator used for the
algorithmic experiments (Fig. 9); :mod:`repro.core.window` bounds it to
the W-slot sliding window of the FPGA implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Optional, Set


@dataclass(frozen=True)
class ValidationResult:
    """Outcome of validating one transaction against the closure."""

    ok: bool
    #: bitmask over committed indices that the candidate can reach.
    proceeding: int
    #: bitmask over committed indices that can reach the candidate.
    succeeding: int

    @property
    def cycle_mask(self) -> int:
        """Committed indices that witness a would-be cycle (0 iff ok)."""
        return self.proceeding & self.succeeding


class ReachabilityClosure:
    """Grow-only transitive closure over committed transactions.

    Rows are Python big-ints: bit *j* of ``rows[i]`` is 1 iff
    transaction ``i`` reaches transaction ``j`` (indices are commit
    order).  The diagonal is 1 — "a vertex can always reach itself"
    (section 4.1) — which also makes the cycle test catch direct
    2-cycles through the diagonal-free f/b vectors uniformly.
    """

    def __init__(self) -> None:
        self.rows: List[int] = []
        self._labels: List[Hashable] = []
        self._index: Dict[Hashable, int] = {}

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def labels(self) -> List[Hashable]:
        return list(self._labels)

    def reaches(self, i: int, j: int) -> bool:
        return bool(self.rows[i] >> j & 1)

    # ------------------------------------------------------------------
    # Validation (Fig. 4 (a))
    # ------------------------------------------------------------------
    def validate(self, forward: int, backward: int) -> ValidationResult:
        """Cycle-check a candidate against the committed prefix.

        ``forward`` has bit *i* set iff the candidate has an edge *to*
        committed transaction *i* (``t ->_rw t_i``, e.g. t anti-depends
        on a read of t_i); ``backward`` has bit *i* set iff committed
        transaction *i* has an edge to the candidate.
        """
        proceeding = forward | self._mv_transposed(forward)
        succeeding = backward | self._mv(backward)
        return ValidationResult(
            ok=(proceeding & succeeding) == 0,
            proceeding=proceeding,
            succeeding=succeeding,
        )

    def _mv(self, vec: int) -> int:
        """Boolean R x vec: bit i set iff row i intersects vec."""
        out = 0
        for i, row in enumerate(self.rows):
            if row & vec:
                out |= 1 << i
        return out

    def _mv_transposed(self, vec: int) -> int:
        """Boolean R^T x vec: OR of the rows selected by vec."""
        out = 0
        i = 0
        while vec:
            if vec & 1:
                out |= self.rows[i]
            vec >>= 1
            i += 1
        return out

    # ------------------------------------------------------------------
    # Commit (Fig. 4 (b))
    # ------------------------------------------------------------------
    def commit(self, result: ValidationResult, label: Optional[Hashable] = None) -> int:
        """Extend the closure with a validated transaction.

        Returns the new transaction's index.  Raises ValueError when
        the result carries a cycle — callers must abort instead.
        """
        if not result.ok:
            raise ValueError("cannot commit a transaction that closes a cycle")
        k = len(self.rows)
        p, s = result.proceeding, result.succeeding

        # Old entries learn the paths through the newcomer.
        for i in range(k):
            if s >> i & 1:
                self.rows[i] |= p
        # Column k: everyone in s now reaches t.
        for i in range(k):
            if s >> i & 1:
                self.rows[i] |= 1 << k
        # Row k: t reaches everyone in p, plus itself.
        self.rows.append(p | (1 << k))

        if label is None:
            label = k
        self._labels.append(label)
        self._index[label] = k
        return k

    # ------------------------------------------------------------------
    # Convenience for tests / trace-level callers
    # ------------------------------------------------------------------
    def validate_edges(
        self,
        forward_labels: Iterable[Hashable],
        backward_labels: Iterable[Hashable],
    ) -> ValidationResult:
        """Validation with label sets instead of bitmasks."""
        forward = 0
        for lbl in forward_labels:
            forward |= 1 << self._index[lbl]
        backward = 0
        for lbl in backward_labels:
            backward |= 1 << self._index[lbl]
        return self.validate(forward, backward)

    def reachable_set(self, label: Hashable) -> Set[Hashable]:
        """Labels reachable from *label* (including itself)."""
        row = self.rows[self._index[label]]
        out = set()
        i = 0
        while row:
            if row & 1:
                out.add(self._labels[i])
            row >>= 1
            i += 1
        return out
