"""Optional native (C) acceleration for the hottest SC kernel.

The vectorized count-domain engine (:mod:`repro.cnn.engine`) reduces the
SCONNA matmul to one BLAS call plus a *remainder reduction*:
``R[b, l, p] = sum_q ((a[b, q, p] * w[l, q]) mod 2**B)``.  NumPy has no
fused modular multiply-accumulate, so the pure-NumPy path must
materialise the ``(B, L, Q, P)`` remainder tensor in chunks and pay a
slow widening ``uint8 -> uint32`` reduction.  A ~40-line C loop does the
same thing fused, in registers, at memory speed.

This module compiles that loop **at runtime** with the system C compiler
(``cc``), caches the shared object in the platform temp directory keyed
by a hash of the source, and loads it through :mod:`ctypes`.  Everything
is best-effort: if there is no compiler, the build fails, or the
environment variable ``REPRO_NATIVE=0`` is set, callers transparently
fall back to the pure-NumPy implementation - results are bit-identical
either way (locked by ``tests/test_cnn_engine.py``).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import stat
import subprocess
import tempfile

import numpy as np

_SOURCE = r"""
#include <stdint.h>
#include <stddef.h>

/* Sign-split row kernel: a holds rows of length q at byte stride
   a_stride, laid out as (bn, p) rows.  One multiply per (weight,
   activation) pair: w_mag holds the |w| low bits for all L rows, w_sgn
   is 0xFF where w > 0 and 0x00 elsewhere; each wrapped product is
   steered into the positive or negative accumulation with a byte mask
   (w == 0 rows have w_mag == 0, so both sides receive 0).  out is
   (bn, 2l, p) int32: rows [0, l) positive sums, rows [l, 2l)
   negative.  16-bit partial sums over 255-element runs cannot wrap. */
void rem_group_sums_split(const uint8_t *restrict a, long a_stride,
                          const uint8_t *restrict w_mag,
                          const uint8_t *restrict w_sgn, long w_stride,
                          int32_t *restrict out,
                          long bn, long l, long p, long q, uint8_t mask) {
    for (long bi = 0; bi < bn; bi++) {
        const uint8_t *ab = a + (size_t)bi * p * a_stride;
        for (long li = 0; li < l; li++) {
            const uint8_t *wr = w_mag + (size_t)li * w_stride;
            const uint8_t *sr = w_sgn + (size_t)li * w_stride;
            int32_t *opos = out + ((size_t)bi * 2 * l + li) * p;
            int32_t *oneg = out + ((size_t)bi * 2 * l + l + li) * p;
            for (long pi = 0; pi < p; pi++) {
                const uint8_t *ar = ab + (size_t)pi * a_stride;
                uint32_t accp = 0, accn = 0;
                long qi = 0;
                for (; qi + 255 <= q; qi += 255) {
                    uint16_t pp = 0, pn = 0;
                    const uint8_t *restrict a2 = ar + qi;
                    const uint8_t *restrict w2 = wr + qi;
                    const uint8_t *restrict s2 = sr + qi;
                    for (long k = 0; k < 255; k++) {
                        uint8_t m = (uint8_t)((uint8_t)(a2[k] * w2[k]) & mask);
                        pp += (uint8_t)(m & s2[k]);
                        pn += (uint8_t)(m & (uint8_t)~s2[k]);
                    }
                    accp += pp;
                    accn += pn;
                }
                {
                    uint16_t pp = 0, pn = 0;
                    for (; qi < q; qi++) {
                        uint8_t m = (uint8_t)((uint8_t)(ar[qi] * wr[qi]) & mask);
                        pp += (uint8_t)(m & sr[qi]);
                        pn += (uint8_t)(m & (uint8_t)~sr[qi]);
                    }
                    accp += pp;
                    accn += pn;
                }
                opos[pi] = (int32_t)accp;
                oneg[pi] = (int32_t)accn;
            }
        }
    }
}

/* Column-layout variant for conv shapes (small Q, large P): a stays in
   the engine's (bn, q, p) cols layout and the inner loop runs over the
   contiguous P axis, so the compiler vectorises across output pixels
   instead of across a 20-odd-element contraction row.  Weights with
   zero low bits (w == 0, or |w| == 2**8 whose products are exact
   multiples of 256) contribute nothing to the remainder and are skipped
   outright.  Fills the same (bn, 2l, p) int32 layout as
   rem_group_sums_split. */
void rem_group_sums_cols(const uint8_t *restrict a, long a_q_stride,
                         long a_b_stride,
                         const uint8_t *restrict w_mag,
                         const uint8_t *restrict w_sgn, long w_stride,
                         int32_t *restrict out,
                         long bn, long l, long p, long q, uint8_t mask) {
    for (long bi = 0; bi < bn; bi++) {
        const uint8_t *ab = a + (size_t)bi * a_b_stride;
        for (long li = 0; li < l; li++) {
            const uint8_t *wr = w_mag + (size_t)li * w_stride;
            const uint8_t *sr = w_sgn + (size_t)li * w_stride;
            int32_t *opos = out + ((size_t)bi * 2 * l + li) * p;
            int32_t *oneg = out + ((size_t)bi * 2 * l + l + li) * p;
            for (long pi = 0; pi < p; pi++) {
                opos[pi] = 0;
                oneg[pi] = 0;
            }
            for (long qi = 0; qi < q; qi++) {
                uint8_t wv = wr[qi];
                if (wv == 0)
                    continue;
                const uint8_t *restrict ar = ab + (size_t)qi * a_q_stride;
                int32_t *restrict acc = sr[qi] ? opos : oneg;
                if (mask == 0xFF) {
                    for (long pi = 0; pi < p; pi++)
                        acc[pi] += (uint8_t)(ar[pi] * wv);
                } else {
                    for (long pi = 0; pi < p; pi++)
                        acc[pi] += (uint8_t)((uint8_t)(ar[pi] * wv) & mask);
                }
            }
        }
    }
}
"""

#: sentinel distinguishing "never tried" from "tried and failed"
_UNSET = object()
_lib: "object" = _UNSET


def _enabled() -> bool:
    return os.environ.get("REPRO_NATIVE", "1") != "0"


def _cache_dir() -> "str | None":
    """Per-user 0700 cache directory; None if it cannot be trusted.

    The .so is loaded into the process, so it must never be readable
    from a world-writable location another user could pre-seed: the
    directory is created mode 0700 and its ownership/permissions are
    re-checked before use.
    """
    path = os.path.join(tempfile.gettempdir(), f"repro_native_{os.getuid()}")
    os.makedirs(path, mode=0o700, exist_ok=True)
    st = os.stat(path)
    if st.st_uid != os.getuid() or (stat.S_IMODE(st.st_mode) & 0o077):
        return None
    return path


def _compile() -> "ctypes.CDLL | None":
    """Build (or reuse) the cached shared object; None on any failure."""
    digest = hashlib.sha256(_SOURCE.encode()).hexdigest()[:16]
    cache_root = _cache_dir()
    if cache_root is None:
        return None
    cache = os.path.join(cache_root, f"rem_{digest}.so")
    if not os.path.exists(cache):
        workdir = tempfile.mkdtemp(prefix="repro_native_build_")
        try:
            src = os.path.join(workdir, "rem.c")
            tmp_so = os.path.join(workdir, "rem.so")
            with open(src, "w") as fh:
                fh.write(_SOURCE)
            base = [
                "cc", "-O3", "-funroll-loops", "-shared", "-fPIC", src, "-o", tmp_so
            ]
            for flags in (["-march=native"], []):  # retry portably if -march fails
                cmd = base[:2] + flags + base[2:]
                try:
                    res = subprocess.run(
                        cmd, capture_output=True, timeout=120, check=False
                    )
                except (OSError, subprocess.SubprocessError):
                    return None
                if res.returncode == 0:
                    break
            else:
                return None
            os.replace(tmp_so, cache)  # atomic publish
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    try:
        lib = ctypes.CDLL(cache)
    except OSError:
        return None
    lib.rem_group_sums_split.argtypes = [
        ctypes.c_void_p, ctypes.c_long,
        ctypes.c_void_p,
        ctypes.c_void_p, ctypes.c_long,
        ctypes.c_void_p,
        ctypes.c_long, ctypes.c_long, ctypes.c_long, ctypes.c_long,
        ctypes.c_uint8,
    ]
    lib.rem_group_sums_split.restype = None
    lib.rem_group_sums_cols.argtypes = [
        ctypes.c_void_p, ctypes.c_long, ctypes.c_long,
        ctypes.c_void_p,
        ctypes.c_void_p, ctypes.c_long,
        ctypes.c_void_p,
        ctypes.c_long, ctypes.c_long, ctypes.c_long, ctypes.c_long,
        ctypes.c_uint8,
    ]
    lib.rem_group_sums_cols.restype = None
    return lib


def get_kernel() -> "ctypes.CDLL | None":
    """The loaded native library, or None when unavailable/disabled."""
    global _lib
    if not _enabled():
        return None
    if _lib is _UNSET:
        try:
            _lib = _compile()
        except Exception:  # any build-environment failure -> pure NumPy
            _lib = None
    return _lib  # type: ignore[return-value]


def native_available() -> bool:
    return get_kernel() is not None


def remainder_group_sums_split(
    a_lo: np.ndarray,
    w_mag_lo: np.ndarray,
    w_pos_mask: np.ndarray,
    q_start: int,
    q_stop: int,
    mask: int,
    out: np.ndarray,
) -> bool:
    """Sign-split remainder reduction: one multiply per (w, a) pair.

    ``a_lo``: C-contiguous ``(B, P, Q)`` uint8 masked low bits;
    ``w_mag_lo``: C-contiguous ``(L, Q)`` uint8 low bits of ``|w|``;
    ``w_pos_mask``: C-contiguous ``(L, Q)`` uint8, 0xFF where ``w > 0``.
    The contraction runs over ``q_start:q_stop`` and fills the
    C-contiguous ``(B, 2L, P)`` int32 ``out`` with
    ``sum_q (a*|w|) & mask`` - positive-weight sums in ``out[:, :L]``,
    negative in ``out[:, L:]``.  Returns False (without touching
    ``out``) when the native kernel is unavailable.
    """
    lib = get_kernel()
    if lib is None:
        return False
    bn, p, q_total = a_lo.shape
    l = w_mag_lo.shape[0]
    qg = q_stop - q_start
    lib.rem_group_sums_split(
        a_lo.ctypes.data + q_start, q_total,
        w_mag_lo.ctypes.data + q_start,
        w_pos_mask.ctypes.data + q_start, w_mag_lo.shape[1],
        out.ctypes.data,
        bn, l, p, qg, mask,
    )
    return True


def remainder_group_sums_cols(
    a_lo_cols: np.ndarray,
    w_mag_lo: np.ndarray,
    w_pos_mask: np.ndarray,
    q_start: int,
    q_stop: int,
    mask: int,
    out: np.ndarray,
) -> bool:
    """Column-layout remainder reduction, vectorised over output pixels.

    ``a_lo_cols``: C-contiguous ``(B, Q, P)`` uint8 masked low bits in
    the engine's cols layout (no transpose needed); ``w_mag_lo`` /
    ``w_pos_mask`` as in :func:`remainder_group_sums_split`.  Fills the
    ``(B, 2L, P)`` int32 ``out``.  Returns False when unavailable.
    """
    lib = get_kernel()
    if lib is None:
        return False
    bn, q_total, p = a_lo_cols.shape
    l = w_mag_lo.shape[0]
    qg = q_stop - q_start
    lib.rem_group_sums_cols(
        a_lo_cols.ctypes.data + q_start * p, p, q_total * p,
        w_mag_lo.ctypes.data + q_start,
        w_pos_mask.ctypes.data + q_start, w_mag_lo.shape[1],
        out.ctypes.data,
        bn, l, p, qg, mask,
    )
    return True
