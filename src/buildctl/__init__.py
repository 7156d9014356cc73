"""buildctl: recognition and diagnosis of metric building structures.

Decides the 1-dimensional building dichotomy exactly on metric graphs,
recursively certifies spherical and Euclidean complexes through their cell
links, constructs apartments by sector propagation, and decomposes
recognized buildings into join factors.

The package re-exports nothing: import from the submodules
(``buildctl.recognizer``, ``buildctl.complexes``, ...), so that a process
loads only what it runs.
"""

__version__ = "0.1.0"
