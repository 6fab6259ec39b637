"""Bound states of a generalized inverted hyperbolic potential.

Closed-form spectrum and wavefunctions from a polynomial reduction of
the radial equation, special-case potentials (Rosen-Morse,
Poschl-Teller, Scarf), and independent numerical oracles (finite
differences and Numerov shooting) that quantify how well the printed
closed forms hold up.
"""

__version__ = "0.1.0"
