"""Optional native (C) kernels for the sconna engine's count stage.

The vectorized count-domain engine (:mod:`repro.cnn.engine`) needs, per
psum group, the sign-split floor sums
``S[b, r, p] = sum_q floor(a[b, q, p] * |w[r, q]| / 2**B)``.  NumPy can
only build them the long way, as a float64 BLAS matmul less a low-bits
remainder reduction.  Two short C loops compute them directly, one
integer pass per group, with the multiply-high identity

    floor(a * |w| / 2**B) = mulhi16(a << 1, |w| << (15 - B))

for ``a, |w|`` in ``[0, 2**B]`` and ``B <= 8``: both operands fit 16
bits (a plain 16-bit product of 256 * 256 would wrap), and compilers
turn the widening multiply's high half into one vector instruction
(``vpmulhuw`` on x86).  ``floor_sums_cols`` vectorises over output
pixels in the engine's ``(B, Q, P)`` layout; ``floor_sums_rows`` runs
along the contraction in the ``(B, P, Q)`` layout, for P < 8.

This module compiles the loops **at runtime** with the system C
compiler (``cc``), caches the shared object in the platform temp
directory keyed by a hash of the source, and loads it through
:mod:`ctypes`.  Everything is best-effort: if there is no compiler, the
build fails, or the environment variable ``REPRO_NATIVE=0`` is set,
callers transparently fall back to the pure-NumPy decomposition -
results are bit-identical either way (locked by
``tests/test_cnn_engine.py``).
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

/* Products per uint16 partial sum: a floored product is at most
   2^8, and 255 * 2^8 < 2^16. */
#define RUN 255
/* Pixels per column-kernel tile. */
#define TILE 64

/* floor(a * |w| / 2^B) for a, |w| in [0, 2^B], B <= 8: the caller
   passes x = a << 1 and y = |w| << (15 - B), both below 2^16.  The
   B-dependent shift sits on the (precomputed) weights: a variable shift
   of the activations keeps compilers from emitting one vector
   multiply-high. */
static inline uint16_t mulhi(uint16_t x, uint16_t y) {
    return (uint16_t)(((uint32_t)x * y) >> 16);
}

/* Row layout, for few output pixels: a holds one row of q activations
   per (image, pixel), a_stride apart.  w is (2l, w_stride): the
   positive-weight rows, then the negative-weight rows.  Fills the
   (bn, 2l, p) double out, vectorised along the contraction. */
void floor_sums_rows(const uint16_t *restrict a, long a_stride,
                     const uint16_t *restrict w, long w_stride,
                     double *restrict out,
                     long bn, long l, long p, long q) {
    for (long bi = 0; bi < bn; bi++) {
        for (long pi = 0; pi < p; pi++) {
            const uint16_t *ar = a + (size_t)(bi * p + pi) * a_stride;
            double *o = out + (size_t)bi * 2 * l * p + pi;
            for (long r = 0; r < l; r++) {
                const uint16_t *wp = w + (size_t)r * w_stride;
                const uint16_t *wn = w + (size_t)(l + r) * w_stride;
                uint32_t sp = 0, sn = 0;
                for (long q0 = 0; q0 < q; q0 += RUN) {
                    long q1 = q - q0 < RUN ? q : q0 + RUN;
                    uint16_t pp = 0, pn = 0;
                    for (long k = q0; k < q1; k++) {
                        uint16_t x = (uint16_t)(ar[k] << 1);
                        pp += mulhi(x, wp[k]);
                        pn += mulhi(x, wn[k]);
                    }
                    sp += pp;
                    sn += pn;
                }
                o[r * p] = sp;
                o[(l + r) * p] = sn;
            }
        }
    }
}

/* Column layout: a is (bn, q, p) with images a_b_stride apart; w and
   out as in floor_sums_rows.  The bn * p pixels are cut into TILE-wide
   tiles that may span images, so a small p still fills the vectors;
   each tile is packed (shifted, zero-padded) one run of contraction
   rows at a time and its sums are vectorised across pixels. */
void floor_sums_cols(const uint16_t *restrict a, long a_b_stride,
                     const uint16_t *restrict w, long w_stride,
                     double *restrict out,
                     long bn, long l, long p, long q) {
    uint16_t at[RUN][TILE];
    /* a tile's runs of pixels within one image: image, first pixel,
       first lane, length */
    long sb[TILE], sp0[TILE], st[TILE], sn[TILE];
    const long total = bn * p;
    for (long n0 = 0; n0 < total; n0 += TILE) {
        long nt = total - n0 < TILE ? total - n0 : TILE, ns = 0;
        for (long t = 0; t < nt; t += sn[ns++]) {
            sb[ns] = (n0 + t) / p;
            sp0[ns] = (n0 + t) % p;
            st[ns] = t;
            sn[ns] = p - sp0[ns] < nt - t ? p - sp0[ns] : nt - t;
        }
        for (long q0 = 0; q0 < q; q0 += RUN) {
            long qn = q - q0 < RUN ? q - q0 : RUN;
            for (long k = 0; k < qn; k++) {
                for (long s = 0; s < ns; s++) {
                    const uint16_t *src = a + (size_t)sb[s] * a_b_stride
                                          + (size_t)(q0 + k) * p + sp0[s];
                    for (long j = 0; j < sn[s]; j++)
                        at[k][st[s] + j] = (uint16_t)(src[j] << 1);
                }
                for (long t = nt; t < TILE; t++)
                    at[k][t] = 0;
            }
            for (long r = 0; r < l; r++) {
                const uint16_t *wp = w + (size_t)r * w_stride + q0;
                const uint16_t *wn = w + (size_t)(l + r) * w_stride + q0;
                uint16_t ap[TILE] = {0}, an[TILE] = {0};
                for (long k = 0; k < qn; k++) {
                    const uint16_t x = wp[k], y = wn[k];
                    for (int t = 0; t < TILE; t++) {
                        ap[t] += mulhi(at[k][t], x);
                        an[t] += mulhi(at[k][t], y);
                    }
                }
                /* scatter from copies: indexing ap and an by segment
                   would pin them to memory in the loop above */
                uint16_t vp[TILE], vn[TILE];
                for (int t = 0; t < TILE; t++) {
                    vp[t] = ap[t];
                    vn[t] = an[t];
                }
                for (long s = 0; s < ns; s++) {
                    double *dp = out + ((size_t)sb[s] * 2 * l + r) * p + sp0[s];
                    double *dn = dp + (size_t)l * p;
                    const uint16_t *up = vp + st[s], *un = vn + st[s];
                    for (long j = 0; j < sn[s]; j++) {
                        dp[j] = q0 ? dp[j] + up[j] : up[j];
                        dn[j] = q0 ? dn[j] + un[j] : un[j];
                    }
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
    cache = os.path.join(cache_root, f"floor_{digest}.so")
    if not os.path.exists(cache):
        workdir = tempfile.mkdtemp(prefix="repro_native_build_")
        try:
            src = os.path.join(workdir, "floor.c")
            tmp_so = os.path.join(workdir, "floor.so")
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
    for kernel in (lib.floor_sums_rows, lib.floor_sums_cols):
        kernel.argtypes = [
            ctypes.c_void_p, ctypes.c_long,
            ctypes.c_void_p, ctypes.c_long,
            ctypes.c_void_p,
            ctypes.c_long, ctypes.c_long, ctypes.c_long, ctypes.c_long,
        ]
        kernel.restype = None
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


def mulhi_weights(w_mag: np.ndarray, bits: int) -> "np.ndarray | None":
    """The kernels' weight operand: uint16 ``|w| << (15 - B)`` for
    magnitudes in ``[0, 2**B]``, or None when ``B > 8`` puts the
    multiply-high identity out of reach."""
    if bits > 8:
        return None
    return w_mag.astype(np.uint16) << (15 - bits)


def floor_group_sums(
    kind: str,
    a: np.ndarray,
    w_mulhi: np.ndarray,
    q_start: int,
    q_stop: int,
    out: np.ndarray,
) -> bool:
    """Sign-split floor sums of one psum group, straight into ``out``.

    ``a``: C-contiguous uint16 activations in ``[0, 2**B]``, laid out
    ``(B, Q, P)`` for ``kind == "cols"`` and ``(B, P, Q)`` otherwise;
    ``w_mulhi``: C-contiguous ``(2L, Q)`` :func:`mulhi_weights`,
    positive-weight rows first (``SconnaLayerPlan.w_mulhi``).  Fills
    the C-contiguous ``(B, 2L, P)`` float64 ``out`` with
    ``sum_q floor(a * |w| / 2**B)`` over ``q_start:q_stop``.  Returns
    False, without touching ``out``, when the library is unavailable;
    raises ValueError when the operands' shapes, dtypes, layout or the
    Q range do not fit the kernel.
    """
    lib = get_kernel()
    if lib is None:
        return False
    bn, l2, p = out.shape
    q_total = w_mulhi.shape[1]
    if not (
        a.shape == ((bn, q_total, p) if kind == "cols" else (bn, p, q_total))
        and w_mulhi.shape[0] == l2 and l2 % 2 == 0
        and 0 <= q_start <= q_stop <= q_total
        and a.dtype == w_mulhi.dtype == np.uint16 and out.dtype == np.float64
        and all(x.flags.c_contiguous for x in (a, w_mulhi, out))
    ):
        raise ValueError("floor_group_sums: operands do not fit the kernel")
    tail = (
        w_mulhi.ctypes.data + 2 * q_start, q_total,
        out.ctypes.data, bn, l2 // 2, p, q_stop - q_start,
    )
    if kind == "cols":
        lib.floor_sums_cols(a.ctypes.data + 2 * q_start * p, q_total * p, *tail)
    else:
        lib.floor_sums_rows(a.ctypes.data + 2 * q_start, q_total, *tail)
    return True
