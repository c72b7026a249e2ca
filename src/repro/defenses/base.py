"""The defence interface: a transformation of the observable record sequence.

A deployed countermeasure would change what the client's TLS stack puts on
the wire; from the eavesdropper's perspective that is exactly a change to the
sequence of (timestamp, record length) observations.  Modelling defences as
:class:`RecordDefense` transformations of :class:`~repro.core.features.ClientRecord`
sequences therefore captures their entire effect on the attack, while keeping
ground-truth labels attached so the defended traffic can still be scored.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

from repro.core.features import ClientRecord
from repro.exceptions import DefenseError


class RecordDefense(ABC):
    """A transformation applied to the client-side record sequence."""

    #: Legacy display name set by subclass constructors; superseded by the
    #: registry-derived :attr:`instance_name` for registry-built instances.
    _instance_name: str | None = None

    @property
    def instance_name(self) -> str:
        """Unique, parameter-bearing name used in evaluation tables.

        Registry-built instances derive it from their component spec (e.g.
        ``"pad-to-multiple(block_bytes=64)"``), so two differently-tuned
        instances of the same class can never collide in a table.  Directly
        constructed instances fall back to the legacy constructor-set name.
        """
        spec = getattr(self, "_component_spec", None)
        if spec is not None:
            from repro.components import component_instance_name

            return component_instance_name(spec)
        if self._instance_name is not None:
            return self._instance_name
        return "defense"

    @abstractmethod
    def transform(self, records: Sequence[ClientRecord]) -> list[ClientRecord]:
        """Return the record sequence as it would appear with the defence deployed."""

    def overhead_bytes(
        self, original: Sequence[ClientRecord], defended: Sequence[ClientRecord]
    ) -> int:
        """Extra bytes on the wire caused by the defence (can be negative)."""
        return sum(r.wire_length for r in defended) - sum(r.wire_length for r in original)


def apply_defense(
    defense: RecordDefense, records: Sequence[ClientRecord]
) -> list[ClientRecord]:
    """Apply a defence and sanity-check the result."""
    if not records:
        raise DefenseError("cannot defend an empty record sequence")
    defended = defense.transform(records)
    if not defended:
        raise DefenseError(
            f"defence {defense.instance_name!r} produced an empty record sequence"
        )
    timestamps = [record.timestamp for record in defended]
    if timestamps != sorted(timestamps):
        raise DefenseError(
            f"defence {defense.instance_name!r} broke record time ordering"
        )
    return defended
