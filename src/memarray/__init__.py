"""Simulator and analysis toolkit for a temporally multiplexed solid-state
quantum memory array.

The package models a ten-cell memory driven through acousto-optic
deflectors: it checks storage plans against the deflectors' timing rules and
compiles them into event timelines, draws single-photon-level Poisson
counting statistics per detection window, characterises inter-cell
cross-talk, and projects network-level figures of merit (adjusted SNR,
heralded g2, time-bin fidelity bound) from measured or simulated counts.

The submodules are the API; import each name from the module that defines
it.  ``import memarray`` alone loads none of them.
"""

__version__ = "0.1.0"
