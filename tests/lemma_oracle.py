"""The tests' oracle for one adaptive group's lemma columns.

group_lemmas runs the library's two halves, _lemma_passes and _lemma_rows,
in one call over k steps. vector_lemmas runs it on 1-row views of one step's
vectors: the step-by-step form that the telemetry table's blocks, of either
kind and any height, must match bit for bit.
"""

import numpy as np

from padamp.diagnostics import _REDUCTIONS, _lemma_passes, _lemma_rows


def group_lemmas(m, m_prev, v, g, beta1t, c1, eps, p, theta, theta_norm):
    """One adaptive group's LEMMA_COLUMNS over k steps, as a (k, 8) float64 array.

    m, m_prev, v, g and theta are (k, d) arrays: row i holds step i's
    post-step moments, the gradient the moments saw and the pre-step
    weights. beta1t, c1 and theta_norm are (k,) arrays; eps and p are the
    block's. The full-size passes (_lemma_passes) leave nine (k,)
    reductions, and the per-row arithmetic (_lemma_rows) turns them into the
    columns. Row i is the same bit for bit whatever the other rows hold:
    every reduction runs along a row, each row dot is the vector dot, and
    the arithmetic is elementwise. The slacks use the uncorrected buffers.
    """
    found = np.empty((len(_REDUCTIONS), len(m)))
    _lemma_passes(m, m_prev, v, g, beta1t, eps, p, theta, theta_norm, found)
    return _lemma_rows(found, c1, eps, p)


def vector_lemmas(m, m_prev, v, g, beta1t, c1, eps, p, theta, theta_norm):
    """group_lemmas on one step's 1-d vectors, as 1-row views: a (1, 8) array."""
    s = np.array([beta1t, c1, theta_norm])
    return group_lemmas(m[None], m_prev[None], v[None], g[None], s[:1], s[1:2], eps, p,
                        theta[None], s[2:])


def one_step_lemmas(m, m_prev, v, g, beta1t, c1, eps, p, theta, theta_norm):
    """vector_lemmas' row as a tuple of Python floats."""
    return tuple(vector_lemmas(m, m_prev, v, g, beta1t, c1, eps, p, theta,
                               theta_norm)[0].tolist())
