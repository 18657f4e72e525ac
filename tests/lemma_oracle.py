"""The tests' oracle for one adaptive group's lemma columns at one step.

_group_lemmas on 1-row views of the step's vectors: the step-by-step form
that the telemetry table's blocks, of either kind and any height, must
match bit for bit.
"""

import numpy as np

from padamp.diagnostics import _group_lemmas


def vector_lemmas(m, m_prev, v, g, beta1t, c1, eps, p, theta, theta_norm):
    """_group_lemmas on one step's 1-d vectors, as 1-row views: a (1, 8) array."""
    s = np.array([beta1t, c1, theta_norm])
    return _group_lemmas(m[None], m_prev[None], v[None], g[None], s[:1], s[1:2], eps, p,
                         theta[None], s[2:])


def one_step_lemmas(m, m_prev, v, g, beta1t, c1, eps, p, theta, theta_norm):
    """vector_lemmas' row as a tuple of Python floats."""
    return tuple(vector_lemmas(m, m_prev, v, g, beta1t, c1, eps, p, theta,
                               theta_norm)[0].tolist())
