"""STAR-RIS control sequences, steering vectors and measurement synthesis.

The one steering-matrix builder of the package lives here: every module that
needs exp(-j pi m sin theta) over an aperture, or its angle derivative, calls
``steering_matrix`` or ``steering_derivative``. So does the one search range
[ANGLE_LO, ANGLE_HI]: scenes are drawn in it, the Ziv-Zakai bound takes its
width, and every angle grid spans it through the cached ``grid_steering``.

Each metasurface element splits the incident wave into a reflected part
(amplitude beta_r, phase phi_r) and a transmitted part whose amplitude follows
from energy conservation beta_t = sqrt(1 - beta_r^2) and whose phase is offset
by +-pi/2 (encoded as a sign on the imaginary unit). A single-RF-chain sensor
behind the surface collects one complex scalar per slot, so all spatial
information enters through the known per-slot control sequence.
"""

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

UNIFORM = "UniformES"
NONUNIFORM = "NonuniformES"

ANGLE_LO, ANGLE_HI = -60.0, 60.0   # the search range of every estimator, degrees
MIN_SEP_DEG = 2.0   # least separation of two drawn users of one side, degrees
FINE_STEP = 0.1     # step of the fine grid (rescan, dictionaries, spectra), degrees
# at or below this SNR, the noise variance 10^(-snr_db/10) overflows a float (about -3082.5 dB)
SNR_DB_MIN = -10.0 * math.log10(np.finfo(float).max)


@dataclass
class StarRisProfile:
    n: int
    t_s: int
    beta_r: np.ndarray      # (n, t_s), reflection amplitudes in (0, 1]
    phi_r: np.ndarray       # (n, t_s), reflection phases [0, 2pi)
    sign_j: np.ndarray      # (n, t_s), +-1 encoding the +-j phase offset
    scenario: str = UNIFORM

    def reflection(self):
        return self.beta_r * np.exp(1j * self.phi_r)

    def p_ratio(self):
        """Transmission/reflection amplitude ratio sqrt(1-b^2)/b per entry."""
        if np.any(self.beta_r <= 0):
            raise ValueError("beta_r must be positive")
        return np.sqrt(1.0 - self.beta_r ** 2) / self.beta_r

    def gain_sequence(self):
        """Per-slot scalar g(t) = sign(t) * j * mean_n p_n(t).

        Exact in the element-wise uniform regime (p_n identical across
        elements); an averaged surrogate otherwise.
        """
        return self.sign_j[0] * 1j * self.p_ratio().mean(axis=0)


@dataclass
class UserScene:
    theta_rs: list          # reflection-side angles, degrees
    theta_ts: list          # transmission-side angles, degrees
    gains: np.ndarray       # K complex slot-invariant gains, RS block first

    @property
    def k_r(self):
        return len(self.theta_rs)

    @property
    def k_t(self):
        return len(self.theta_ts)

    @property
    def k(self):
        return self.k_r + self.k_t


@dataclass
class Channel:
    h: np.ndarray           # length-n RIS->sensor channel, known


@dataclass
class MeasurementBatch:
    """One batch of slot observations, the input of every estimator.

    Setting y or sigma_n2, at construction or later, to a non-finite value
    (or sigma_n2 to a negative one) raises ValueError naming the field.
    """
    y: np.ndarray                 # (t_s,)
    sigma_n2: float
    operator_paired: np.ndarray   # (2n, t_s) columns psi(t)
    g: np.ndarray                 # per-slot scalar gain sequence (see above)
    scenario: str

    def __setattr__(self, name, value):
        if name == "y" and not np.all(np.isfinite(value)):
            raise ValueError("MeasurementBatch.y has non-finite entries")
        if name == "sigma_n2" and not (np.isfinite(value) and value >= 0):
            raise ValueError(f"MeasurementBatch.sigma_n2={value!r} is not a finite variance")
        super().__setattr__(name, value)


def steering_matrix(thetas, n):
    """Half-wavelength ULA responses exp(-j pi m sin theta), m = 0..n-1, for
    angles in degrees: n x K for K angles (n x 1 for a scalar)."""
    return np.exp(-1j * np.pi * np.arange(n)[:, None] * np.sin(np.radians(thetas)))


def steering_derivative(thetas, steer):
    """d/d theta, theta in radians, of steering_matrix: entry (m, k) equal to
    (-j pi m cos theta_k) exp(-j pi m sin theta_k). steer is the caller's
    steering_matrix(thetas, n), whose exponentials are reused."""
    rad = np.radians(thetas)
    return (-1j * np.pi * np.arange(steer.shape[0])[:, None] * np.cos(rad)) * steer


@functools.lru_cache(maxsize=None)
def grid_steering(n, step):
    """(grid over [ANGLE_LO, ANGLE_HI], n x G steering matrix), cached; both read-only."""
    grid = np.arange(ANGLE_LO, ANGLE_HI + 1e-9, step)
    sv = steering_matrix(grid, n)
    grid.flags.writeable = False
    sv.flags.writeable = False
    return grid, sv


@functools.lru_cache(maxsize=None)
def stacked_grid_steering(n, step):
    """The 2n x G real stack [Re; Im] of grid_steering(n, step)'s steering
    matrix, cached and read-only."""
    sv = grid_steering(n, step)[1]
    stack = np.concatenate([sv.real, sv.imag])
    stack.flags.writeable = False
    return stack


def generate_profile(scenario, n, t_s, rng, randomize_sign=True):
    """Draw a control sequence for the requested energy-splitting scenario.

    Uniform: beta_r = sqrt(2)/2 everywhere. Nonuniform: beta_r^2 iid uniform
    on [0.2, 0.8] per element and slot. In both cases the +-j sign is shared
    by all elements within a slot; randomize_sign=False pins it to +1 for all
    slots (a surface whose element design fixes the phase offset), which is
    what the spectrum figures use.
    """
    if scenario == UNIFORM:
        beta = np.full((n, t_s), np.sqrt(2) / 2)
    elif scenario == NONUNIFORM:
        beta = np.sqrt(rng.uniform(0.2, 0.8, (n, t_s)))
    else:
        raise ValueError(f"unknown scenario {scenario!r}")
    phi = rng.uniform(0.0, 2 * np.pi, (n, t_s))
    if randomize_sign:
        sign = rng.choice([-1.0, 1.0], t_s)
    else:
        sign = np.ones(t_s)
    return StarRisProfile(n, t_s, beta, phi, np.broadcast_to(sign, (n, t_s)).copy(), scenario)


def build_paired_operator(profile, channel):
    """Psi (2n x t_s): column t stacks Phi_R(t) h over G(t) Phi_R(t) h. Under
    h = 1 its halves are the reflection coefficients r and the transmission
    coefficients G r = +-j sqrt(1 - beta_r^2) e^{j phi_r} of the elements."""
    top = channel.h[:, None] * profile.reflection()        # (n, t_s)
    G = profile.sign_j * 1j * profile.p_ratio()            # (n, t_s)
    return np.vstack([top, top * G])


def latent_fri_vectors(scene, profile):
    """The static latent x = [x_R; x_T] of both regimes: each half is the
    K-term exponential sum of its side's users."""
    n = profile.n
    x_r = steering_matrix(scene.theta_rs, n) @ scene.gains[:scene.k_r]
    x_t = steering_matrix(scene.theta_ts, n) @ scene.gains[scene.k_r:]
    return np.concatenate([x_r, x_t])


def check_snr_db(snr_db):
    """Reject an SNR that is not a real number (a bool or a string is not
    one), or that is NaN or at most SNR_DB_MIN (-inf among them), where the
    noise variance overflows; +inf stands for the noiseless case."""
    if isinstance(snr_db, bool) or not isinstance(snr_db, numbers.Real):
        raise ValueError(f"snr_db={snr_db!r} is not a real number")
    if not snr_db > SNR_DB_MIN:
        raise ValueError(f"snr_db={snr_db!r} is not an SNR above {SNR_DB_MIN:.1f} dB "
                         "(inf gives the noiseless batch)")


def synthesize_measurements(scene, profile, channel, snr_db, rng):
    """One batch of T_s scalar observations plus the sensing operators.

    Noise is circular complex Gaussian with sigma_n^2 = 10^(-snr_db/10), so
    the per-user SNR eta = |s_k|^2 / sigma_n^2 equals the dB value for
    unit-modulus gains. snr_db = inf gives the noiseless batch; an SNR
    ``check_snr_db`` rejects raises ValueError.
    """
    if scene.k == 0:
        raise ValueError("empty scene")
    check_snr_db(snr_db)
    psi = build_paired_operator(profile, channel)
    x = latent_fri_vectors(scene, profile)
    y = psi.T @ x
    sigma_n2 = 0.0
    if np.isfinite(snr_db):
        sigma_n2 = 10.0 ** (-snr_db / 10.0)
        t_s = profile.t_s
        y = y + np.sqrt(sigma_n2 / 2) * (rng.standard_normal(t_s) + 1j * rng.standard_normal(t_s))
    return MeasurementBatch(y=y, sigma_n2=sigma_n2, operator_paired=psi,
                            g=profile.gain_sequence(), scenario=profile.scenario)


def draw_scene(rng, k_r, k_t):
    """Random user angles, iid uniform on the search range and MIN_SEP_DEG
    apart per side, plus unit-modulus gains with uniform phases."""
    def draw(k):
        while True:
            a = np.sort(rng.uniform(ANGLE_LO, ANGLE_HI, k))
            if k < 2 or np.diff(a).min() >= MIN_SEP_DEG:
                return a
    tr = draw(k_r)
    tt = draw(k_t)
    gains = np.exp(2j * np.pi * rng.random(k_r + k_t))
    return UserScene(list(tr), list(tt), gains)


def draw_channel(rng, n):
    h = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2)
    return Channel(h)
