"""Reference implementations that the tests compare lusk.fusion against."""

import numpy as np

from lusk.fusion import MonogenicTriple, _frequency_grids, log_gabor_gain


def log_gabor_response(frame: np.ndarray, lambda0: float, sigma0: float) -> np.ndarray:
    uu, vv, mag = _frequency_grids(*frame.shape)
    return np.real(np.fft.ifft2(np.fft.fft2(frame) * log_gabor_gain(mag, lambda0, sigma0)))


def monogenic_direct(frame: np.ndarray, lambda0: float, sigma0: float) -> MonogenicTriple:
    """O(N^4) direct-DFT oracle for monogenic()."""
    rows, cols = frame.shape
    r = np.arange(rows)
    c = np.arange(cols)
    er = np.exp(-2j * np.pi * np.outer(r, r) / rows)
    ec = np.exp(-2j * np.pi * np.outer(c, c) / cols)
    spectrum = er @ frame.astype(np.complex128) @ ec
    uu, vv, mag = _frequency_grids(rows, cols)
    spectrum *= log_gabor_gain(mag, lambda0, sigma0)
    safe = np.where(mag > 0, mag, 1.0)
    ier = np.conj(er) / rows
    iec = np.conj(ec) / cols
    def inv(s):
        return np.real(ier @ s @ iec)
    return MonogenicTriple(m1=inv(spectrum),
                           m2=inv(spectrum * (1j * uu / safe)),
                           m3=inv(spectrum * (1j * vv / safe)))
