"""Substitution tilings generated from an arbitrary right triangle.

Any right triangle subdivides into five similar copies: four half-scale
copies of one similarity class and one of another.  Iterating on the
currently-largest tiles yields the supertile sequence T_n.  This package
constructs those tilings, classifies when the set of tile sizes and
orientations stays finite, computes exact and limiting population
statistics, analyzes the one-dimensional substitution dynamics along
fault lines, and renders the results as SVG.

Each module is its own API (``from tilelab.classify import classify``);
importing the package alone loads none of them.  No module loads numpy
when imported, so the exact integer commands (``classify``, ``spectral
--theta``, ``boundary --system til2|til13``) never pay for the array
library; irrational size keys are stdlib Decimals, and none loads mpmath.
Fault-line words are plain ``str``s, one character a letter.
"""

__version__ = "0.1.0"
