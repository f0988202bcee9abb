"""Feature signatures and ML export formats (paper Section 4.1, item 5).

Feature signatures mark how each output column is consumed by the model:

* **LABEL** columns pass through unchanged (``multiclass_label`` maps a
  categorical column onto a dense class id space);
* **DISCRETE** columns are feature-hashed [Weinberger et al., ICML'09]
  into a high-dimensional sparse space, so ultra-high-cardinality keys
  (e.g. millions of product items) never materialise as raw table data;
* **CONTINUOUS** columns keep their value as a one-dimensional dense
  feature.

With signatures attached, feature rows export directly to LibSVM lines or
TFRecord-like dicts — skipping the Pandas post-processing step the paper
calls out as a pain of standard-SQL pipelines.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence

from ..errors import SchemaError

__all__ = [
    "SignatureKind", "FeatureSignature", "SignatureSchema", "feature_hash",
    "MulticlassLabeler", "to_libsvm", "to_tfrecords",
]


class SignatureKind(enum.Enum):
    LABEL = "label"
    DISCRETE = "discrete"
    CONTINUOUS = "continuous"


@dataclasses.dataclass(frozen=True)
class FeatureSignature:
    """Signature of one output column.

    ``dimensions`` is the hashed space size for DISCRETE columns (ignored
    otherwise).
    """

    name: str
    kind: SignatureKind
    dimensions: int = 1 << 20

    def __post_init__(self) -> None:
        if self.kind is SignatureKind.DISCRETE and self.dimensions <= 0:
            raise SchemaError("discrete signature needs dimensions > 0")


def feature_hash(column: str, value: Any, dimensions: int) -> int:
    """Stable feature-hashing of ``(column, value)`` into ``[0, dims)``.

    The column name participates in the hash so identical values in
    different columns land on different indices (the standard hashing
    trick for multitask features).
    """
    payload = f"{column}\x1f{value}".encode("utf-8")
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    return int.from_bytes(digest, "big") % dimensions


class MulticlassLabeler:
    """Maps categorical label values onto dense class ids (0, 1, 2, ...).

    The assignment is first-seen order, which is deterministic for a
    fixed dataset order.
    """

    def __init__(self) -> None:
        self._classes: Dict[Any, int] = {}

    def label(self, value: Any) -> int:
        if value not in self._classes:
            self._classes[value] = len(self._classes)
        return self._classes[value]


class SignatureSchema:
    """Signatures for a full feature row, in column order."""

    def __init__(self, signatures: Sequence[FeatureSignature]) -> None:
        if not signatures:
            raise SchemaError("signature schema must be non-empty")
        labels = [s for s in signatures if s.kind is SignatureKind.LABEL]
        if len(labels) > 1:
            raise SchemaError("at most one LABEL column is supported")
        self.signatures = tuple(signatures)
        self.label_position: Optional[int] = next(
            (position for position, s in enumerate(signatures)
             if s.kind is SignatureKind.LABEL), None)
        # Continuous features occupy the lowest indices; discrete columns
        # hash into disjoint ranges stacked after them.
        self._offsets: List[int] = []
        offset = 0
        for signature in signatures:
            self._offsets.append(offset)
            if signature.kind is SignatureKind.CONTINUOUS:
                offset += 1
            elif signature.kind is SignatureKind.DISCRETE:
                offset += signature.dimensions
        self.total_dimensions = offset

    def encode_row(self, row: Sequence[Any]) -> Dict[int, float]:
        """Sparse ``{index: value}`` encoding of one feature row."""
        if len(row) != len(self.signatures):
            raise SchemaError(
                f"row arity {len(row)} != signature arity "
                f"{len(self.signatures)}")
        encoded: Dict[int, float] = {}
        for position, (signature, value) in enumerate(
                zip(self.signatures, row)):
            if value is None or signature.kind is SignatureKind.LABEL:
                continue
            base = self._offsets[position]
            if signature.kind is SignatureKind.CONTINUOUS:
                encoded[base] = float(value)
            else:
                index = base + feature_hash(signature.name, value,
                                            signature.dimensions)
                encoded[index] = encoded.get(index, 0.0) + 1.0
        return encoded

    def label_of(self, row: Sequence[Any],
                 labeler: Optional[MulticlassLabeler] = None) -> float:
        if self.label_position is None:
            return 0.0
        value = row[self.label_position]
        if labeler is not None:
            return float(labeler.label(value))
        return float(value) if value is not None else 0.0


def to_libsvm(rows: Iterable[Sequence[Any]], schema: SignatureSchema,
              labeler: Optional[MulticlassLabeler] = None
              ) -> Iterator[str]:
    """Yield LibSVM lines: ``label idx:value idx:value ...``.

    Indices are emitted sorted, as LibSVM requires.
    """
    for row in rows:
        label = schema.label_of(row, labeler)
        sparse = schema.encode_row(row)
        features = " ".join(f"{index}:{value:g}"
                            for index, value in sorted(sparse.items()))
        label_text = f"{label:g}"
        yield f"{label_text} {features}".rstrip()


def to_tfrecords(rows: Iterable[Sequence[Any]], schema: SignatureSchema,
                 labeler: Optional[MulticlassLabeler] = None
                 ) -> Iterator[Dict[str, Any]]:
    """Yield TFRecord-shaped dicts: dense label + sparse indices/values."""
    for row in rows:
        sparse = schema.encode_row(row)
        indices = sorted(sparse)
        yield {
            "label": schema.label_of(row, labeler),
            "indices": indices,
            "values": [sparse[index] for index in indices],
            "dense_shape": schema.total_dimensions,
        }
