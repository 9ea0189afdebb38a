"""Simulation and error-budget toolkit for shallow dynamic circuits on 1D chains.

Subpackage layout:

- ``pauli``       -- n-qubit Pauli operators as integer bitmasks
- ``stabilizer``  -- stabilizer tableau with mid-circuit measurement
- ``tableau``     -- circuits compiled against that tableau into a
                     vectorized Pauli-frame engine for large shot batches
- ``statevector`` -- small dense simulator used as an exact cross-check
- ``circuits``    -- builders for the teleportation / fan-out circuit family
- ``noise``       -- Pauli noise channels, fidelity bounds and cost budgets
- ``certify``     -- direct fidelity estimation from stabilizer sampling
- ``cli``         -- command-line entry point (``dyncirc``)
"""

__version__ = "0.1.0"

__all__ = [
    "pauli",
    "stabilizer",
    "tableau",
    "statevector",
    "circuits",
    "noise",
    "certify",
    "cli",
]
