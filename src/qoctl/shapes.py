"""Field envelopes for guesses and update shapes.

Configs name no envelope: the ``rabi`` scenario drives with ``flat`` and
the optimizers' update shape is ``sin2_ramp``.  All builders return
a :class:`~qoctl.dynamics.ControlField` sampled on the midpoint grid.
"""

from __future__ import annotations

import numpy as np

from .dynamics import ControlField, TimeGrid


def flat(grid: TimeGrid, amplitude: float = 1.0) -> ControlField:
    return ControlField.constant(grid, amplitude)


def gaussian(grid: TimeGrid, amplitude: float, center: float,
             width: float) -> ControlField:
    t = grid.midpoints
    return ControlField(grid, amplitude * np.exp(-0.5 * ((t - center) / width) ** 2))


def sin2_ramp(grid: TimeGrid, amplitude: float = 1.0,
              ramp_fraction: float = 0.05) -> ControlField:
    """Flat-top envelope with sine-squared switch-on/off ramps.

    The first and last midpoint samples are exactly zero, which is what the
    optimizer's update shape requires (fields stay pinned at the ends).
    """
    if not 0.0 < ramp_fraction <= 0.5:
        raise ValueError("ramp_fraction must be in (0, 0.5]")
    t = grid.midpoints
    t_on = grid.t0 + grid.dt / 2.0
    t_off = grid.tf - grid.dt / 2.0
    ramp = (t_off - t_on) * ramp_fraction
    out = np.ones_like(t)
    rising = t < t_on + ramp
    falling = t > t_off - ramp
    out[rising] = np.sin(0.5 * np.pi * (t[rising] - t_on) / ramp) ** 2
    out[falling] = np.sin(0.5 * np.pi * (t_off - t[falling]) / ramp) ** 2
    return ControlField(grid, amplitude * out)

