"""Certified lower bounds on two-mode entanglement from photon-counting
weak-homodyne measurement data.

Submodules
----------
fock        truncated Fock-space states, operators, beam splitters
negativity  exact logarithmic negativity (ground truth)
detector    time-multiplexed click detector and weak-homodyne POVMs
sdp         self-contained primal-dual interior-point SDP solver
pairs       set-up of the solver's pair-pair Schur gathers
bound       measurement assembly and certified negativity lower bounds
cli         batch harness (sweeps, tables, Wigner grids)
"""

__version__ = "0.1.0"
