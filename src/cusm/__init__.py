"""Complex-unitary sequence modeling: Cayley-step state evolution under
low-rank Hermitian generators, quadratic (Born) decoding, probability-current
diagnostics, and the dimensional-separation task apparatus. Each name lives in
its module (the exception types in cusm.exceptions); the package holds only
the version."""

__version__ = "0.1.0"
