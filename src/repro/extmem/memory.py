"""Internal-memory accounting.

The paper's internal-memory tapes are unrestricted in access but bounded in
total *space* ``s(N)``.  :class:`InternalMemory` is a named-register store
whose space charge is the exact number of bits needed to hold each value:

* ``int``   → ``max(1, bit_length)`` bits (two's-complement sign ignored —
  the model's alphabet is constant-size, so constant factors are free);
* ``str``   → ``8 · len`` bits;
* ``bool``  → 1 bit;
* ``bytes`` → ``8 · len`` bits;
* tuples/lists → sum of the components.

Re-assigning a register frees its previous charge first, so a machine that
keeps "numbers smaller than p1" really is charged O(log p1) bits, exactly as
the Theorem 8(a) analysis requires.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Optional

from ..errors import ReproError
from ..observability.events import KIND_INTERNAL, new_event
from .tracker import ResourceTracker


def bit_cost(value: Any) -> int:
    """Number of bits charged for storing ``value`` in internal memory."""
    if type(value) is int:  # the common case first; bool is not ``int``
        return max(1, value.bit_length())
    if value is None:
        return 0
    if isinstance(value, bool):
        return 1
    if isinstance(value, int):
        return max(1, value.bit_length())
    if isinstance(value, str):
        return 8 * len(value)
    if isinstance(value, bytes):
        return 8 * len(value)
    if isinstance(value, (tuple, list)):
        return sum(bit_cost(v) for v in value)
    raise ReproError(f"cannot charge internal memory for {type(value).__name__}")


class InternalMemory:
    """A register file whose total bit usage is charged to a tracker.

    Use item access (``mem["acc"] = 7``; ``mem["acc"]``) or :meth:`store` /
    :meth:`load` / :meth:`free`.  Peak usage is tracked by the shared
    :class:`ResourceTracker`, which enforces the s(N) budget if one is set.
    """

    def __init__(self, tracker: Optional[ResourceTracker] = None):
        self.tracker = tracker or ResourceTracker()
        self._registers: Dict[str, Any] = {}
        self._charges: Dict[str, int] = {}

    def store(self, name: str, value: Any) -> None:
        """Store ``value`` under ``name``, re-charging space as needed.

        The store is atomic with respect to budget enforcement: the space
        charge is the only fallible step and is check-then-commit, so a
        caught :class:`~repro.errors.SpaceBudgetExceeded` leaves the
        register table, ``used_bits`` *and* the tracker's
        ``current_internal_bits`` all in their pre-store state — the two
        views can never desynchronize.

        This is the hottest charge in the repo, so an allowed charge is
        committed here, exactly as :meth:`ResourceTracker.charge_internal`
        would commit it; a charge that would go negative or past the
        budget is handed to ``charge_internal``, which emits the denial
        and raises.  With a sink attached, the ``internal`` event is
        built here too, field for field as ``ResourceTracker._emit``
        builds it, and :meth:`commit_peak` builds a loop's last one the
        same way: the three event layouts change together.
        """
        # may raise; nothing charged yet (ints, the hot case, skip a call;
        # ``or 1`` is max(1, bits) without the cost of calling max)
        if type(value) is int:
            new_cost = value.bit_length() or 1
        else:
            new_cost = bit_cost(value)
        delta = new_cost - self._charges.get(name, 0)
        tracker = self.tracker
        prospective = tracker._current_internal_bits + delta
        # check, then commit: a refused charge raises (in charge_internal)
        # before any counter or register moves
        if prospective > tracker._peak_internal_bits:
            budget = tracker.budget
            if (
                budget is not None
                and budget.max_internal_bits is not None
                and prospective > budget.max_internal_bits
            ):
                tracker.charge_internal(delta)  # emits the denial, raises
            tracker._peak_internal_bits = prospective
        elif prospective < 0:
            tracker.charge_internal(delta)  # raises
        tracker._current_internal_bits = prospective
        sink = tracker._sink
        if sink is not None:
            tracker._seq += 1
            sink.emit(
                new_event((  # ResourceTracker._emit's layout, inlined
                    tracker._seq,
                    KIND_INTERNAL,
                    None,
                    None,
                    delta,
                    1 + tracker._reversals,
                    prospective,
                    tracker._peak_internal_bits,
                    tracker._tape_count,
                    tracker._steps,
                    None,
                ))
            )
        self._registers[name] = value
        self._charges[name] = new_cost

    def has_headroom(self, widest: Dict[str, int]) -> bool:
        """May a loop over these registers defer its stores to :meth:`commit_peak`?

        ``widest`` maps each register the loop stores to the charge of the
        widest value it can hold (for a residue below ``p``, the bit length
        of ``p − 1``).  True only when no sink needs the loop's individual
        stores: none is attached, or the one attached only tallies (it has
        an ``emit_loop`` method, as
        :class:`~repro.observability.sinks.TallySink` does; any other sink,
        a ring buffer, a JSONL file or a trace probe, gets every event);
        none of the registers is held yet; and the current total plus
        every register at its widest fits ``max_internal_bits``, so no
        store could be denied.  The loop's only effects are then the final
        registers, the current total, the peak and, for a tally, the
        number of events and the last one.  The sink is tested first, so a
        run with a ring buffer attached pays one test and one attribute
        lookup.
        """
        tracker = self.tracker
        sink = tracker._sink
        if (
            sink is not None and getattr(sink, "emit_loop", None) is None
        ) or not self._charges.keys().isdisjoint(widest):
            return False
        budget = tracker.budget
        if budget is None or budget.max_internal_bits is None:
            return True
        return (
            tracker._current_internal_bits + sum(widest.values())
            <= budget.max_internal_bits
        )

    def commit_peak(
        self, values: Dict[str, Any], peak_bits: int, stores: int, last_delta: int
    ) -> None:
        """Commit a loop that :meth:`has_headroom` let run on locals.

        ``values`` holds the loop's final register values, in the order it
        first stored them; ``peak_bits`` is the highest total charge of
        those registers after any one of its stores; ``stores`` is the
        number of stores the loop made, at least one, and ``last_delta``
        the charge its last store added (its new value's charge minus the
        one it replaced).  Only a tally reads those two, so a caller may
        pass 0 for both while no sink is attached and skip working them
        out.  A register the loop stored after :meth:`has_headroom` let it
        run is held when the loop commits: its old charge comes out of the
        base the loop's totals are counted from.
        The registers and their charges are stored, the current total is
        that base plus those charges, and the tracker's peak is raised to
        the base plus the loop's peak: the state the loop's ``store``
        calls would have left.  With a tally attached, the
        tracker's sequence number advances by ``stores`` and the tally's
        ``emit_loop`` receives the count and the ``internal`` event the
        last store would have built: its delta, the totals after the loop
        and ``ResourceTracker._emit``'s layout.  The loop could not be
        denied, so none of its events is a denial.
        """
        tracker = self.tracker
        charges = self._charges
        base = total = tracker._current_internal_bits
        for name, value in values.items():
            cost = bit_cost(value)
            held = charges.get(name, 0)
            base -= held
            total += cost - held
            self._registers[name] = value
            charges[name] = cost
        tracker._current_internal_bits = total
        if base + peak_bits > tracker._peak_internal_bits:
            tracker._peak_internal_bits = base + peak_bits
        sink = tracker._sink
        if sink is not None:
            tracker._seq += stores
            sink.emit_loop(
                stores,
                new_event((  # ResourceTracker._emit's layout, as in store
                    tracker._seq,
                    KIND_INTERNAL,
                    None,
                    None,
                    last_delta,
                    1 + tracker._reversals,
                    total,
                    tracker._peak_internal_bits,
                    tracker._tape_count,
                    tracker._steps,
                    None,
                )),
            )

    def load(self, name: str) -> Any:
        """Read a register (KeyError via ReproError if absent)."""
        if name not in self._registers:
            raise ReproError(f"internal memory has no register {name!r}")
        return self._registers[name]

    def free(self, name: str) -> None:
        """Drop a register, releasing its space charge."""
        if name in self._registers:
            self.tracker.charge_internal(-self._charges[name])
            del self._registers[name]
            del self._charges[name]

    def clear(self) -> None:
        """Drop all registers."""
        for name in list(self._registers):
            self.free(name)

    # aliases, not wrappers: one Python frame less per register access
    __setitem__ = store
    __getitem__ = load

    def __delitem__(self, name: str) -> None:
        if name not in self._registers:
            raise KeyError(name)
        self.free(name)

    def __contains__(self, name: str) -> bool:
        return name in self._registers

    def __iter__(self) -> Iterator[str]:
        return iter(self._registers)

    def __len__(self) -> int:
        return len(self._registers)

    @property
    def used_bits(self) -> int:
        """Current total space charge in bits."""
        return sum(self._charges.values())

    @property
    def peak_bits(self) -> int:
        """Peak space charge seen by the tracker (all users included)."""
        return self.tracker.peak_internal_bits
