"""Per-slot predicted-fidelity loop: the reference for ``pipelined_fidelities``.

:func:`repro.backends.noise.pipelined_fidelities` evaluates a window's
slots in one array expression; this is the original scalar loop it
replaced, whose evaluation order is self-evident.
``tests/test_vectorized_parity.py`` holds the vectorized kernel to it bit
for bit (see the evaluation-order contract in the ``noise`` module
docstring).
"""

from __future__ import annotations

from collections.abc import Sequence


def pipelined_fidelities_scalar(
    base_infidelity: float,
    crosstalk_infidelity: float,
    start_offsets: Sequence[float],
    finish_offsets: Sequence[float],
) -> tuple[float, ...]:
    """The original per-slot loop, kept verbatim as the pinned oracle.

    Serving always goes through the vectorized
    :func:`pipelined_fidelities`; this reference exists so the parity
    tests can assert bit-identity against an implementation whose
    evaluation order is self-evident.  (The ``_scalar`` suffix marks it
    exempt from simlint's SIM008 hot-loop rule.)
    """
    count = len(start_offsets)
    fidelities = []
    for s in range(count):
        duration = finish_offsets[s] - start_offsets[s] + 1
        overlap = 0.0
        for o in range(count):
            if o == s:
                continue
            shared = (
                min(finish_offsets[s], finish_offsets[o])
                - max(start_offsets[s], start_offsets[o])
                + 1
            )
            if shared > 0:
                overlap += shared / duration
        infidelity = min(1.0, base_infidelity + crosstalk_infidelity * overlap)
        fidelities.append(1.0 - infidelity)
    return tuple(fidelities)
