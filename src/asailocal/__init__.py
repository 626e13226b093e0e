"""Local L-, eps-, and gamma-factors for Asai (twisted tensor)
representations of GL(2) over quadratic extensions of local fields,
with every closed-form identity checked against brute-force oracles."""

__version__ = "0.1.0"
