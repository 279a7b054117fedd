"""soficlab: sofic entropy and model-measure diagnostics for finite-alphabet
shift processes over explicit sofic approximations.

Library layout:
  config       schema.json, its interpreter and the probability-vector rule
               (standard library only: validate and report load nothing else)
  groups       free and free-product specs, balls, coset keys; a direct
               product is an identity and its two factors
  randomness   seeded Philox streams, permutation and categorical draws
  sofic        sofic approximations sigma: G -> Sym(V), Schreier spectra
  processes    shift-invariant processes via exact finite-window marginals
  models       empirical distributions, good-model counting, adjoint shifts
  covering     Hamming distances; covering/packing numbers of sets and
               measures, each from a distance matrix
  convergence  local weak*/quenched/doubly-quenched defects and dispersion
  entropy      Shannon entropy and letter-exact entropy curves
  experiments  the E1..E9 batch experiments behind the CLI
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
