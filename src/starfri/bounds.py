"""Ziv-Zakai lower bound on the full-space angle MSE.

The bound mixes an a-priori term (dominant at low SNR, set by the width ZETA
of the model's search range [ANGLE_LO, ANGLE_HI]) with a Fisher-information
term (dominant at high SNR) through a smooth valley-filling weight.
Reflection and transmission spaces are bounded separately and aggregated with
weights K_R, K_T. All angles are radians inside this module; degrees only
appear at the reporting boundary.
"""

import math
from dataclasses import dataclass

import numpy as np

from .star_ris_model import (ANGLE_HI, ANGLE_LO, build_paired_operator, steering_derivative,
                             steering_matrix)

ZETA = np.radians(ANGLE_HI - ANGLE_LO)   # width of the search range, radians


@dataclass
class ZzbInputs:
    scene: object              # UserScene
    profile: object            # StarRisProfile
    channel: object            # Channel
    sigma_n2: float

    @property
    def eta(self):
        # unit-modulus source gains make the per-user SNR 1/sigma_n2
        return np.inf if self.sigma_n2 == 0 else 1.0 / self.sigma_n2


def _sensing_rows(inputs, subspace):
    psi = build_paired_operator(inputs.profile, inputs.channel)
    n = inputs.profile.n
    return (psi[:n] if subspace == 'RS' else psi[n:]).T      # (t_s, n)


def fisher_information(inputs, subspace):
    """F_i = (2 / (T_s sigma_n^2)) Re(Psi_i^H Psi_i) with Psi_i stacking, per
    slot, the sensing row applied to the gain-weighted steering derivatives.

    Returns (F, singular_flag). Angles enter in radians. A noise variance
    that is not positive, the noiseless sigma_n^2 = 0 among them, has no
    finite F and raises ValueError.
    """
    if not inputs.sigma_n2 > 0:
        raise ValueError(f"sigma_n2={inputs.sigma_n2}: the Fisher information needs a "
                         "positive noise variance")
    scene = inputs.scene
    if subspace == 'RS':
        thetas = scene.theta_rs
        gains = scene.gains[:scene.k_r]
    else:
        thetas = scene.theta_ts
        gains = scene.gains[scene.k_r:]
    if len(thetas) == 0:
        raise ValueError("empty subspace")
    n = inputs.profile.n
    rows = _sensing_rows(inputs, subspace)
    dA = steering_derivative(thetas, steering_matrix(thetas, n))
    big_psi = rows @ (dA * gains[None, :])                   # (t_s, K_i)
    F = (2.0 / (inputs.profile.t_s * inputs.sigma_n2)) * np.real(big_psi.conj().T @ big_psi)
    singular = np.linalg.matrix_rank(F) < F.shape[0]
    return F, singular


def p_l(k, t_s, n, eta):
    """Probability-of-large-error factor of the a-priori term,
    exp(k t_s (log_term + x^2)) q with q = Q(sqrt(2 k t_s) x), the Gaussian
    tail, taken as erfc(sqrt(k t_s) x) / 2: no cancellation, so q stays
    positive where 1 - Phi(z) would round to 0 (z above about 8.3)."""
    if eta == np.inf:
        return 0.0
    x = n * eta / (2.0 + n * eta)
    log_term = np.log(4.0 * (1.0 + n * eta) / (2.0 + n * eta) ** 2)
    q = 0.5 * math.erfc(math.sqrt(k * t_s) * x)
    return float(np.exp(k * t_s * (log_term + x ** 2)) * q)


def u_tilde(k, t_s, n, eta):
    """Transition argument in its simplified closed form
    k t_s (n eta / (2 + n eta))^2, which is k t_s when noiseless."""
    if eta == np.inf:
        return float(k * t_s)
    return float(k * t_s * (n * eta / (2.0 + n * eta)) ** 2)


def valley_weight(u):
    """Regularized lower incomplete gamma of shape 3/2, P(3/2, u): 0 at u=0,
    monotone, tending to 1, so the bound slides from the a-priori to the CRB
    regime.

    Closed form erf(sqrt u) - 2 sqrt(u/pi) e^-u for u >= 1. Below 1 its two
    terms cancel (to O(u^1.5) against O(u^0.5)), so there it sums the series
    P(3/2, u) = u^1.5 e^-u / Gamma(5/2) * sum_j u^j / ((5/2)(7/2)...(3/2+j)).
    """
    if u >= 1.0:
        return math.erf(math.sqrt(u)) - 2.0 * math.sqrt(u / math.pi) * math.exp(-u)
    term = total = 1.0
    j = 0
    while term > 1e-17 * total:
        j += 1
        term *= u / (1.5 + j)
        total += term
    return u ** 1.5 * math.exp(-u) / (0.75 * math.sqrt(math.pi)) * total


def zzb_subspace(inputs, subspace):
    """Per-subspace MSE lower bound in radians^2; 0 on noiseless inputs."""
    scene = inputs.scene
    k_i = scene.k_r if subspace == 'RS' else scene.k_t
    if k_i == 0:
        raise ValueError("empty subspace")
    k = scene.k
    t_s = inputs.profile.t_s
    n = inputs.profile.n
    eta = inputs.eta
    if eta == np.inf:   # the sigma_n^2 -> 0 limit: p_l = 0, and the CRB term is O(sigma_n^2)
        return 0.0
    F, singular = fisher_information(inputs, subspace)
    apb = 2.0 * p_l(k, t_s, n, eta) * k_i * ZETA ** 2 / ((k_i + 1) ** 2 * (k_i + 2))
    u = u_tilde(k, t_s, n, eta)
    if singular:
        tr_inv = float(np.trace(np.linalg.pinv(F)))
    else:
        tr_inv = float(np.trace(np.linalg.inv(F)))
    return apb + valley_weight(u) * tr_inv / k_i


def zzb_full(inputs):
    """Count-weighted aggregation of the two subspace bounds (radians^2)."""
    scene = inputs.scene
    if scene.k == 0:
        raise ValueError("no users")
    total = 0.0
    for sub, k_i in (('RS', scene.k_r), ('TS', scene.k_t)):
        if k_i:
            total += k_i * zzb_subspace(inputs, sub)
    return total / scene.k
