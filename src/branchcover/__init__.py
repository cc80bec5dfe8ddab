"""Branched covers of triangulated stratified spaces over the rationals.

Build branched covers from monodromy data, compute ordinary, twisted and
intersection homology exactly, and verify that the Betti numbers of the
total space split into the intersection homology of the base with
constant coefficients plus the sum-zero kernel system.
"""

__version__ = "0.1.0"
