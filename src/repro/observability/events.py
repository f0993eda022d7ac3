"""The structured event a :class:`~repro.extmem.tracker.ResourceTracker` emits.

This module is a leaf on purpose: the tracker imports it at module load, so
it must not (transitively) import anything from :mod:`repro.extmem`.

Every event carries a **monotone sequence number** (per tracker), the event
kind, per-tape attribution where it applies, the signed delta of the charge,
and a full snapshot of the running totals *after* the event.  Snapshots make
every event self-contained: a sink can be attached mid-run, a JSONL file can
be truncated, and any suffix of the stream still reconstructs exact totals.

Kinds:

========== =============================================================
``tape``     a tape registered (``delta`` = 1, ``label`` = tape name)
``reversal`` a head-direction change charged to ``tape_id``
``internal`` internal memory adjusted by ``delta`` bits (may be negative)
``step``     ``delta`` machine steps recorded
``phase``    a phase boundary marked (``label`` = phase name; no charge)
``denied``   a charge refused by the budget (``label`` names the resource;
             totals show the *unchanged* pre-charge state — check-then-commit)
========== =============================================================
"""

from __future__ import annotations

from functools import partial
from typing import Any, Dict, NamedTuple, Optional

KIND_TAPE = "tape"
KIND_REVERSAL = "reversal"
KIND_INTERNAL = "internal"
KIND_STEP = "step"
KIND_PHASE = "phase"
KIND_DENIED = "denied"

#: Every kind a tracker can emit, in no particular order.
EVENT_KINDS = (
    KIND_TAPE,
    KIND_REVERSAL,
    KIND_INTERNAL,
    KIND_STEP,
    KIND_PHASE,
    KIND_DENIED,
)


class ResourceEvent(NamedTuple):
    """One accounting event, with the post-event totals inlined.

    An immutable ``NamedTuple``: assigning a field raises
    ``AttributeError``.  Being a tuple, an event also compares equal to a
    plain tuple holding the same values in field order.
    """

    seq: int
    kind: str
    tape_id: Optional[int]
    tape_name: Optional[str]
    delta: int
    scans: int
    current_internal_bits: int
    peak_internal_bits: int
    tapes_used: int
    steps: int
    label: Optional[str] = None

    def to_json_dict(self) -> Dict[str, Any]:
        """A plain dict ready for ``json.dumps`` (drops ``None`` fields)."""
        out: Dict[str, Any] = {
            "seq": self.seq,
            "kind": self.kind,
            "delta": self.delta,
            "scans": self.scans,
            "current_internal_bits": self.current_internal_bits,
            "peak_internal_bits": self.peak_internal_bits,
            "tapes_used": self.tapes_used,
            "steps": self.steps,
        }
        if self.tape_id is not None:
            out["tape_id"] = self.tape_id
        if self.tape_name is not None:
            out["tape_name"] = self.tape_name
        if self.label is not None:
            out["label"] = self.label
        return out


#: ``new_event((seq, kind, …, label))`` builds a :class:`ResourceEvent`
#: from one tuple of all eleven fields in field order (``label`` has no
#: default here).  It runs no Python frame; calling the class runs its
#: generated ``__new__``, one frame per event.  The tracker's hot paths
#: build every event through it.
new_event = partial(tuple.__new__, ResourceEvent)
