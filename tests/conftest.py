from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from stasinv import StasParams

settings.register_profile(
    "ci",
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


def complexes(re_lo, re_hi, im_lo, im_hi):
    return st.builds(
        complex,
        st.floats(re_lo, re_hi, allow_nan=False),
        st.floats(im_lo, im_hi, allow_nan=False),
    )


odd_ints = st.integers(0, 7).map(lambda k: 2 * k + 1)

# bounds matching the randomized verification experiment: Re p in [0.3, 1],
# Im p in [-1.5, 1.5], amplitudes in [-2, 2]^2, odd frequencies up to 15
params_st = st.builds(
    StasParams,
    p=complexes(0.3, 1.0, -1.5, 1.5),
    q1=complexes(-2, 2, -2, 2),
    q2=complexes(-2, 2, -2, 2),
    r1=odd_ints,
    r2=odd_ints,
)


def draw_params(rng, r_hi=15, q_min=0.0):
    """A family member drawn from the SplitMix64 rng within the bounds above, odd
    frequencies up to r_hi: p, then q1 and q2, each redrawn while |q| < q_min, then
    r1 and r2.  Each complex takes its real part first, each r one output modulo the
    odd integers in [1, r_hi].  p needs no redraw: Re p >= 0.3 keeps |1 + p| >= 1.3."""
    p = complex(rng.uniform(0.3, 1.0), rng.uniform(-1.5, 1.5))
    q = []
    while len(q) < 2:
        if abs(z := complex(rng.uniform(-2, 2), rng.uniform(-2, 2))) >= q_min:
            q.append(z)
    odds = range(1, r_hi + 1, 2)
    return StasParams(p, *q, odds[rng.next_u64() % len(odds)], odds[rng.next_u64() % len(odds)])
