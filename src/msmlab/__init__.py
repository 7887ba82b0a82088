"""msmlab: numerical laboratory for the annealed multi-scale random graph.

The model lives on n nodes with heavy-tailed fitness weights. Nodes i and j
connect independently with probability p_ij = 1 - exp(-eps_n x_i x_j) where
eps_n = n^(-1/alpha) and the weights follow a Pareto law with tail index
alpha in (0,1). The package provides the expected-kernel and adjacency
matrices, closed-form predictions for the outlier eigenvalues and their
eigenvectors, dense numerical spectra, measured bulk edges, and a cavity
solver for the Stieltjes transform of the noise bulk, plus a CLI.
"""
__version__ = "0.1.0"

__all__ = ["__version__"]
