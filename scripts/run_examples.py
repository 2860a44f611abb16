#!/usr/bin/env python3
"""Walk the shipped corpus end to end and print the reference results.

For every corpus document this runs the whole pipeline: canonicalization
(where needed), well-posedness, feedthrough, stability, the zero-dynamics
reduction with its constraint rows and zeroing-input functional, the
transmission-zero scan, a certificate that every zero of the reduced
pencil is a transmission zero of the system, and a closed-loop
simulation certifying that the output stays at zero.
"""

from pathlib import Path

import numpy as np

import phzero as pz
from phzero.analysis import pencil_roots

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def show(name, mat):
    mat = np.atleast_2d(mat)
    body = "\n".join("      [" + ", ".join(f"{v: .6g}" for v in row) + "]" for row in mat)
    print(f"    {name} =\n{body}")


def run(path: Path) -> None:
    print(f"\n=== {path.name} ===")
    loaded = pz.load_system(path)
    if isinstance(loaded, pz.MultiSpeedSystem):
        system = pz.split_commensurate(pz.reflect_positive(loaded))
        print(f"  multirate ({loaded.n} channels) -> uniform ({system.n} channels, "
              f"travel time {system.p})")
        show("K", system.K)
        show("L", system.L)
    else:
        system = loaded

    print(f"  well posed: {pz.check_well_posed(system)}")
    stable, radius = pz.is_exponentially_stable(system)
    print(f"  feedthrough E = {pz.discrete_reduce(system).Dd.ravel()}")
    print(f"  spectral radius of the traversal map: {radius:.12g} "
          f"({'exponentially stable' if stable else 'not exponentially stable'})")

    res = pz.reduce(system)
    print(f"  zero dynamics: k = {res.k} of n = {system.n}"
          + (" (full state space)" if res.full_state else
             f", {res.constraints.shape[0]} elimination(s), "
             f"deflation residual {res.deflation_residual:.1e}"))
    if res.constraints.size:
        show("constraint rows", res.constraints)
        show("Kw", res.Kw)
        show("Lw", res.Lw)
        fk, fl = res.input_functional_original()
        show("zeroing input on incoming traces", fk)
        show("zeroing input on outgoing traces", fl)

    scan = pz.scan_zeros(system)
    if scan.identically_zero:
        print("  transfer function identically zero")
    elif scan.w_roots:
        for w, s in zip(scan.w_roots, scan.s_values):
            print(f"  transmission zero: w = {w:.12g}, s = {s:.12g} "
                  f"(period {scan.s_period:.6g}i)")
    else:
        print("  no transmission zeros")

    reduced, _ = pencil_roots(res.Kw, res.Lw)
    certified = 0
    for w in reduced:
        try:
            certified += pz.is_transmission_zero(system, -np.log(w) / system.p)
        except pz.SingularMatrixError:
            pass  # a boundary-pencil singularity: no transmission-zero test there
    print(f"  reduced-pencil zeros: {certified} of {len(reduced)} certified as "
          f"transmission zeros")

    # a piecewise-constant profile on 64 cells, every cell in V*
    basis = res.nulling_subspace().basis
    z0 = basis @ np.random.default_rng(0).uniform(-1.0, 1.0, size=(basis.shape[1], 64))
    for mode in ("reduction", "friend"):
        tr = pz.simulate_zeroing(system, res, z0, steps=20, mode=mode)
        print(f"  closed loop ({mode} feedback): max |y| = {tr.max_output():.3e} "
              f"over 20 traversals")


def main() -> None:
    for path in sorted(CORPUS.glob("*.json")):
        run(path)


if __name__ == "__main__":
    main()
