"""Receiver sensitivity solver (paper Eqs. 2 and 3).

Given a target bit resolution ``B_Res`` and data rate ``DR``, find the
minimum optical power ``P_PD-opt`` at which the photodetector can still
resolve ``2**B_Res`` levels.  SCONNA's stochastic bit-streams are digital,
so it needs only ``B_Res = 1``; the analog AMM/MAM baselines must resolve
``B + log2(N)`` bits on the summed output, which is what couples their
VDPE size ``N`` to the operand precision ``B`` (the trade-off of paper
Table I).

The defining equation is implicit because the noise density ``beta``
(Eq. 3) itself depends on the optical power through the shot and RIN
terms, so we solve it by bisection on the monotone function
``B_Res(P) - target`` inside a bracket.
"""

from __future__ import annotations

import math

from repro.photonics.photodetector import PhotodetectorParams, bit_resolution
from repro.utils.units import watts_to_dbm


def solve_sensitivity_dbm(
    target_bit_resolution: float,
    data_rate_hz: float,
    params: PhotodetectorParams | None = None,
    p_min_dbm: float = -70.0,
    p_max_dbm: float = 30.0,
) -> float:
    """Minimum optical power [dBm] achieving ``target_bit_resolution``.

    Parameters
    ----------
    target_bit_resolution:
        Required receiver resolution in bits (``B_Res`` of Eq. 2).  Use 1
        for SCONNA's digital bit-streams; use ``B + log2(N)`` for an
        analog VDPC that must distinguish ``N * 2**B`` summed levels.
    data_rate_hz:
        Receiver data rate ``DR``.  For SCONNA this is the stochastic
        stream rate ``BR * 2**B / 2**B = BR`` per bit-slot decision, but
        the paper solves Eq. 2 at ``DR = BR * 2**B``; both are exposed by
        callers - this function just solves the equation it is given.
    params:
        Photodetector parameters (defaults: Table III).

    Raises
    ------
    ValueError
        If the target resolution is unreachable inside the bracket (e.g.
        RIN-limited: beyond some power the SNR saturates).
    """
    if params is None:
        params = PhotodetectorParams()
    if target_bit_resolution <= 0:
        raise ValueError("target_bit_resolution must be positive")
    if data_rate_hz <= 0:
        raise ValueError("data_rate_hz must be positive")

    def deficit(p_dbm: float) -> float:
        return bit_resolution(p_dbm, data_rate_hz, params) - target_bit_resolution

    lo, hi = deficit(p_min_dbm), deficit(p_max_dbm)
    if lo > 0:
        # Even the weakest bracketed power suffices; report the bracket edge.
        return p_min_dbm
    if hi < 0:
        raise ValueError(
            f"bit resolution {target_bit_resolution} unreachable at "
            f"DR={data_rate_hz:.3g} Hz (RIN/thermal limited); "
            f"max achievable is {target_bit_resolution + hi:.2f} bits"
        )
    # bisection: the deficit rises with power, and the bracket shrinks
    # to within 1e-6 dB of the root
    a, b = p_min_dbm, p_max_dbm
    while b - a > 1e-6:
        mid = 0.5 * (a + b)
        if deficit(mid) < 0:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


def max_resolution_bits(
    data_rate_hz: float, params: PhotodetectorParams | None = None
) -> float:
    """RIN-limited ceiling on receiver resolution at high optical power.

    At large P the SNR tends to ``1/sqrt(RIN * DR/2)`` independent of P;
    useful to explain why analog VDPCs cannot buy precision with laser
    power alone.
    """
    if params is None:
        params = PhotodetectorParams()
    snr_ceiling = 1.0 / math.sqrt(params.rin_linear_per_hz * data_rate_hz / 2.0)
    return (20.0 * math.log10(snr_ceiling) - 1.76) / 6.02


def sensitivity_curve_dbm(
    target_bit_resolution: float,
    data_rates_hz: list[float],
    params: PhotodetectorParams | None = None,
) -> list[float]:
    """Vector version of :func:`solve_sensitivity_dbm` over data rates."""
    return [
        solve_sensitivity_dbm(target_bit_resolution, dr, params)
        for dr in data_rates_hz
    ]
