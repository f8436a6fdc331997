"""The special-function layer, which now defines nothing.

The package calls ``scipy.special`` (gammaln, psi, zeta(2, .), betaln) and
``math.lgamma`` where it uses them, and no module imports this one.  It is
kept only because the benchmark's layer tracer (perfbench/tracing.py)
imports every layer by name, this one included.
"""
