"""TV-regularized reconstruction of elliptic PDE source terms from partial
boundary observations, on structured triangular meshes."""

__version__ = "0.1.0"
