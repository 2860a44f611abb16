#!/usr/bin/env python3
"""Regenerate the shipped corpus documents from their exact definitions."""

from pathlib import Path

import numpy as np

from phzero import MultiSpeedSystem, PHSystem, RationalSpeed, save_system

ROOT = Path(__file__).resolve().parent.parent / "corpus"


def two_speed_network() -> MultiSpeedSystem:
    """Two coupled channels with speeds 1 and 1/2 (needs splitting)."""
    return MultiSpeedSystem(
        speeds=(RationalSpeed(1, 1, -1), RationalSpeed(1, 2, -1)),
        K=[[1, 1], [0, 1]],
        L=[[1, 0], [0, 0]],
        Ky=[[0, 0]],
        Ly=[[1, 1]],
        m=1,
    )


def colocated_string() -> MultiSpeedSystem:
    """A string with colocated force input and velocity output, whose
    feedthrough ``Dd = 1`` is invertible, so the zero dynamics live on the
    full state space.

    The port-Hamiltonian form is ``x_t = P1 (H x)_zeta`` with
    ``P1 = [[0, 1], [1, 0]]`` and ``H = I``, where ``(H x)_1`` is the
    velocity and ``(H x)_2`` the force: clamped (zero velocity) at
    ``zeta = 0``, with force in and velocity out at ``zeta = 1``.  These
    rows are the output of ``canonicalize.diagonalize_constant`` on that
    system, scaled by ``sqrt(2)``.
    """
    return MultiSpeedSystem(
        speeds=(RationalSpeed(1, 1, 1), RationalSpeed(1, 1, -1)),
        K=[[1, -1], [0, 0]],
        L=[[0, 0], [1, 1]],
        Ky=[[0, 0]],
        Ly=[[1, -1]],
        m=1,
    )


def split_three_channel() -> PHSystem:
    """Uniform form of the two-speed network (slow channel split in two)."""
    return PHSystem(
        p=1.0,
        K0=[[1, 0, 1], [0, 1, 0]],
        L0=[[1, 0, 0], [0, 0, -1]],
        Ku=[[0, 0, 1]],
        Lu=[[0, 0, 0]],
        Ky=[[0, 0, 0]],
        Ly=[[1, 1, 0]],
    )


def ring_three_channel() -> PHSystem:
    """Three channels coupled in a ring; the traversal map is a cyclic
    permutation, so the uncontrolled system is not exponentially stable."""
    return PHSystem(
        p=1.0,
        K0=[[0, 0, -1], [-1, 0, 0]],
        L0=[[1, 0, 0], [0, 1, 0]],
        Ku=[[0, -1, 0]],
        Lu=[[0, 0, 1]],
        Ky=[[0, 0, 0]],
        Ly=[[1, 0, 0]],
    )


def sparse_ten_channel() -> PHSystem:
    """Ten-channel network with sparse couplings on the incoming traces."""
    k0 = np.zeros((9, 10))
    entries = [
        (1, 2, 1), (1, 9, -3),
        (2, 3, 1), (2, 2, -1),
        (3, 6, 1), (3, 10, 2),
        (4, 1, -5), (4, 6, 2),
        (5, 10, 6), (5, 9, -4),
        (6, 8, 4), (6, 1, -2),
        (7, 6, 1), (7, 7, 3),
        (8, 3, -2), (8, 8, 1), (8, 5, -5),
        (9, 1, 1), (9, 6, 5), (9, 9, -1),
    ]
    for i, j, v in entries:
        k0[i - 1, j - 1] = v
    ku = np.zeros((1, 10))
    ku[0, 3] = 1.0
    ly = np.zeros((1, 10))
    ly[0, 1] = 1.0
    ly[0, 3] = -2.0
    return PHSystem(
        p=1.0, K0=k0, L0=np.zeros((9, 10)), Ku=ku, Lu=np.zeros((1, 10)),
        Ky=np.zeros((1, 10)), Ly=ly,
    )


CORPUS = {
    "two_speed_network.json": two_speed_network,
    "split_three_channel.json": split_three_channel,
    "ring_three_channel.json": ring_three_channel,
    "sparse_ten_channel.json": sparse_ten_channel,
    "colocated_string.json": colocated_string,
}


def main() -> None:
    ROOT.mkdir(exist_ok=True)
    for name, build in CORPUS.items():
        save_system(build(), ROOT / name)
        print(f"wrote corpus/{name}")


if __name__ == "__main__":
    main()
