"""Primary synchronization signal generation.

The LTE PSS is a length-63 Zadoff-Chu sequence with its center element
punctured, mapped onto the 62 subcarriers around DC, and brought to the
time domain on an N-point grid (N = 64 or 128 for the 1.4 MHz bandwidth
cases handled here).  Three root indices are in use, 25, 29 and 34, and
the pair (29, 34) is complex-conjugate: d_29(n) = conj(d_34(n)).  That
identity, together with the even symmetry s(n) = s(N - n) of the time
signal, is what the reduced-complexity correlators exploit, so both are
asserted by the test suite at machine precision.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

ZC_LENGTH = 63
PSS_ROOTS = (25, 29, 34)

# Conjugate pairing follows u <-> L - u.  63 - 29 = 34; root 25 has no
# partner inside the PSS root set (63 - 25 = 38).
CONJUGATE_ROOT = {29: 34, 34: 29}

# Cyclic prefix of the PSS OFDM symbol, in samples, per supported grid
# size.  These are the LTE normal-CP lengths scaled down from the
# 2048-point grid (144 * N / 2048), truncated to an integer at N = 64.
CP_LENGTH = {64: 4, 128: 9}


@dataclass(frozen=True)
class PssWaveform:
    """Time-domain PSS, optionally preceded by a cyclic prefix.

    ``samples`` holds cp_len + size_n entries; the OFDM body (the part
    the correlators match against) is ``samples[cp_len:]``.
    """

    root: int
    size_n: int
    cp_len: int
    samples: np.ndarray

    @property
    def body(self) -> np.ndarray:
        """The N-sample symbol body without the cyclic prefix."""
        return self.samples[self.cp_len:]


def _frozen(values: np.ndarray) -> np.ndarray:
    values.setflags(write=False)
    return values


def zc_sequence(root: int) -> np.ndarray:
    """Generate the length-63 Zadoff-Chu sequence of one root.

    Parameters
    ----------
    root : int
        Root index u, coprime with ZC_LENGTH.

    Returns
    -------
    np.ndarray
        Read-only unit-modulus sequence d_u(n) = exp(-j pi u n (n+1) / L)
        for n = 0 .. L-1, L = ZC_LENGTH.

    Notes
    -----
    The phase index u n (n+1) is reduced modulo 2L in exact integer
    arithmetic before the complex exponential is evaluated.  This keeps
    every element accurate to a couple of ulp, which the conjugate-pair
    identity between roots 29 and 34 relies on.
    """
    if not (0 < root < ZC_LENGTH):
        raise ValueError(f"root must satisfy 0 < root < {ZC_LENGTH}, got {root}")
    if np.gcd(root, ZC_LENGTH) != 1:
        raise ValueError(f"root {root} is not coprime with {ZC_LENGTH}")
    n = np.arange(ZC_LENGTH, dtype=np.int64)
    phase_idx = (root * n * (n + 1)) % (2 * ZC_LENGTH)
    return _frozen(np.exp(-1j * np.pi * phase_idx / ZC_LENGTH))


def map_to_subcarriers(seq: np.ndarray, size_n: int) -> np.ndarray:
    """Place the center-punctured ZC sequence on an N-point DFT grid,
    as a read-only array of N bins in DFT-natural order.

    The 63-element sequence loses its center element d(31); the first
    half d(0..30) goes to subcarriers k = -31 .. -1 and the second half
    d(32..62) to k = +1 .. +31, i.e. bin k holds d(k + 31) for every
    occupied k.  Bin 0 is DC, bins 1 .. N/2 - 1 are the positive
    subcarriers and bins N/2 .. N - 1 the negative ones, so signed
    index k sits at array index k mod N.  DC and all bins beyond +/-31
    stay zero.
    """
    if size_n < ZC_LENGTH + 1:
        raise ValueError(
            f"size_n = {size_n} cannot hold 62 occupied bins plus DC"
        )
    bins = np.zeros(size_n, dtype=complex)
    k = np.arange(-31, 32)
    k = k[k != 0]
    bins[k % size_n] = seq[k + 31]
    return _frozen(bins)


def pss_time_domain(root: int, size_n: int) -> PssWaveform:
    """Synthesize the N-sample time-domain PSS for one root index.

    Evaluates s(n) = (1/N) * sum_k D(k) exp(-j 2 pi n k / N) over the
    occupied bins, which with the DFT-natural bin order is exactly the
    forward DFT of the grid scaled by 1/N.  The direct sum is kept as a
    test oracle; this path must agree with it to 1e-12 relative.
    """
    if size_n not in CP_LENGTH:
        raise ValueError(f"size_n must be one of {tuple(CP_LENGTH)}, got {size_n}")
    bins = map_to_subcarriers(zc_sequence(root), size_n)
    samples = np.fft.fft(bins) / size_n
    return PssWaveform(root=root, size_n=size_n, cp_len=0, samples=_frozen(samples))


def add_cyclic_prefix(w: PssWaveform) -> PssWaveform:
    """Prepend the last CP_LENGTH[N] body samples as a cyclic prefix."""
    if w.cp_len != 0:
        raise ValueError("waveform already carries a cyclic prefix")
    cp_len = CP_LENGTH[w.size_n]
    samples = np.concatenate([w.samples[-cp_len:], w.samples])
    return PssWaveform(
        root=w.root, size_n=w.size_n, cp_len=cp_len, samples=_frozen(samples)
    )


# ---------------------------------------------------------------------------
# File formats: CSV (index, re, im), raw interleaved float64 IQ, and the
# atomic writer behind every file the package writes.
# ---------------------------------------------------------------------------

def write_text(path, text: str | bytes) -> None:
    """Write a text (or bytes) file atomically, creating its directory
    if missing.

    The data goes to a temporary file next to ``path``, which is then
    renamed over it, so readers never see a partial file; the temporary
    file is removed if anything fails.
    """
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb" if isinstance(text, bytes) else "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_waveform_csv(path, samples: np.ndarray) -> None:
    """Write complex samples as CSV rows ``index,re,im``.

    Floats are rendered with repr (shortest round-trip form), so the
    file regenerates byte-identically for identical inputs.  Rows end
    in CRLF.
    """
    rows = ["index,re,im"] + [f"{i},{float(v.real)!r},{float(v.imag)!r}"
                              for i, v in enumerate(samples)]
    write_text(path, "".join(row + "\r\n" for row in rows).encode("ascii"))


def write_iq(path, samples: np.ndarray) -> None:
    """Write raw IQ: little-endian float64, I and Q interleaved."""
    write_text(path, np.asarray(samples, dtype="<c16").tobytes())


def read_iq(path) -> np.ndarray:
    """Read raw IQ written by write_iq: whole 16-byte samples only."""
    size = os.path.getsize(path)
    if size % 16:
        raise ValueError(f"IQ file {path} holds {size} bytes, not whole 16-byte samples")
    return np.fromfile(path, dtype="<c16")
