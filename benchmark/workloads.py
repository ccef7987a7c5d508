"""The benchmark's workloads: seeded scenario documents for `fisherwatch simulate`.

The seed drives only the noise of the record (the scenario's ``seed``);
the event layout is fixed per workload so that the screened intervals,
and with them the scan work, stay the same from seed to seed. Every
onset sits on a screening boundary t_i = i*D (D = 3p under the default
profile), so that boundary sees the whole change in its later segment
and always rejects. Each boundary that follows a cleared event must
also go one way on every seed, because a rejection there changes the
scan work: a cleared 40-channel scale event makes the boundary after it
reject on every seed (L between -7.5 and -4.6 over 300 seeds), a
cleared rank-one spike leaves it as quiet as a null boundary (1.3%
rejections). A cleared 4-channel event (5% rejections) would not.
Screened intervals are kept apart by at least one null boundary,
because adjacent neighbourhoods merge.
"""
from __future__ import annotations

NOISE_SIGMA = 1e-4
PROFILE_DEFAULTS = {"alpha": 0.01, "kappa": 2, "beta1": 0.0, "beta2": 0.0,
                    "profile": "distribution"}


def default_config(p: int) -> dict:
    """The config `fisherwatch` resolves for p channels and no --config file."""
    return {"D": 3 * p, "d1": max(p - 10, 2), "d2": p + 10, "s": 16,
            **PROFILE_DEFAULTS}


def _scale(tau, channels, factor, end=None):
    ev = {"tau": tau, "kind": "scale-subset", "channels": list(channels),
          "factor": factor}
    if end is not None:
        ev["end"] = end
    return ev


def _spike(tau, channels, p, strength, end=None):
    direction = [1.0 if c in channels else 0.0 for c in range(1, p + 1)]
    ev = {"tau": tau, "kind": "spike", "direction": direction,
          "strength": strength}
    if end is not None:
        ev["end"] = end
    return ev


def _quiet_p40():
    # 149 boundary tests over 720 000 cells and one event: import, CSV
    # read and screening dominate; the scans cover under a thousand
    # windows (the event's interval plus the boundaries that reject
    # under the null, about 2.5% of them at this p and D).
    p, D = 40, 120
    return {"p": p, "T": 150 * D,
            "events": [_scale(75 * D, range(1, 9), 3.0)]}


def _dense_p80():
    # Five events, each cleared D/2 samples after its onset: three
    # 40-channel scale events (intervals of 3D, 561 windows each) and two
    # rank-one spikes (intervals of 2D, 321 windows each), 2325 windows
    # per method in five intervals.
    p, D = 80, 240
    half = D // 2
    events = [
        _scale(2 * D, range(1, 41), 2.0, end=2 * D + half),
        _spike(6 * D, range(41, 49), p, 25.0, end=6 * D + half),
        _scale(9 * D, range(41, 81), 2.0, end=9 * D + half),
        _spike(13 * D, range(1, 9), p, 25.0, end=13 * D + half),
        _scale(16 * D, range(21, 61), 2.0, end=16 * D + half),
    ]
    return {"p": p, "T": 18 * D, "events": events}


def _wide_p200():
    # Three segments and one persistent event on the second boundary:
    # one screened interval of 2D = 1200 samples, 801 windows of width
    # 400, each an O(p^3) factorization and eigensolve.
    p, D = 200, 600
    return {"p": p, "T": 3 * D,
            "events": [_scale(2 * D, range(1, 31), 2.0)]}


WORKLOADS = {
    "quiet-p40": _quiet_p40,
    "dense-p80": _dense_p80,
    "wide-p200": _wide_p200,
}


def scenario(name: str, seed: int) -> dict:
    """Scenario document of workload ``name``; ``seed`` drives the noise."""
    doc = WORKLOADS[name]()
    doc["seed"] = int(seed)
    doc["noise_sigma"] = NOISE_SIGMA
    return doc
