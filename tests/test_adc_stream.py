"""The counter-based ADC noise stream (photonics/converters.py).

Every draw is ``z = Q(h(h(h(key, image), block), counter))``: a pure
function of the stream's key and the count's position.  Locked here:
the table and key are fixed on every host, the native pass equals the
NumPy transcription bit for bit, ``z`` is standard normal with no
correlation between neighbouring positions or neighbouring seeds, the
realised MAPE is the configured one, and a model never repeats a draw.
"""

import math
import pickle
import statistics
import subprocess
import sys
import threading

import numpy as np
import pytest

from repro.photonics.converters import (
    AdcDraw,
    AdcErrorModel,
    adc_noise,
    noise_block,
    noise_table,
    stream_key,
    stream_normals,
)
from repro.stochastic.error_models import PerRequestErrorModels, SconnaErrorModel
from repro.utils import native

#: sigma per unit of MAPE
SIGMA_PER_MAPE = math.sqrt(math.pi / 2)


def _draw(keys, images, mapes):
    return AdcDraw(
        np.asarray(keys, dtype=np.uint64),
        np.asarray(images, dtype=np.uint64),
        np.asarray(mapes, dtype=np.float64) * SIGMA_PER_MAPE,
    )


def _seeded(n_seeds, n_counts, image=0):
    """``(n_seeds, n_counts)`` normals: image ``image`` of seeds 0.."""
    keys = [stream_key(k) for k in range(n_seeds)]
    return stream_normals(_draw(keys, [image] * n_seeds, [1.0] * n_seeds),
                          noise_block(0, 0), n_counts)


def _lag1(a, b):
    return float(np.corrcoef(a.ravel(), b.ravel())[0, 1])


class TestTableAndKey:
    def test_table_nodes(self):
        t = noise_table()
        assert t.shape == (65537,) and t.dtype == np.float64
        assert not t.flags.writeable
        assert noise_table() is t, "built once per process"
        assert np.all(np.diff(t) > 0)
        assert np.array_equal(t, -t[::-1]) and t[32768] == 0.0
        nd = statistics.NormalDist()
        j = np.arange(0, 65537, 61)
        want = [nd.inv_cdf((k + 0.5) / 65537) for k in j.tolist()]
        np.testing.assert_allclose(t[j], want, rtol=0, atol=1e-13)

    def test_key_is_a_fixed_hash(self):
        """The same 64-bit key, and the same draws, on every host."""
        assert stream_key(0) == 0x84723B3F989C1A1F
        assert stream_key(1) == 0xF1CBCCF18E330601
        assert stream_key(np.int64(1)) == stream_key(1)
        assert 0 <= stream_key(2**100) < 2**64
        with pytest.raises(ValueError):
            stream_key(-1)
        z = _seeded(1, 4)[0]
        assert [float(v).hex() for v in z] == [
            "0x1.786e4645bc5eap-2", "0x1.acc4f26b3bf11p-1",
            "-0x1.2e9fb5d2165d8p-1", "-0x1.5fbfa915f1c6dp-1",
        ]

    def test_none_draws_fresh_keys(self):
        assert stream_key(None) != stream_key(None)


@pytest.mark.skipif(not native.native_available(),
                    reason="native library unavailable")
class TestNativeLeg:
    """The C pass is the NumPy transcription, bit for bit."""

    #: the largest count one psum group holds: 704 floored products of
    #: at most 2**8 each (vdpe_size 176 x 4 passes, B = 8)
    TOP = 704 * 256

    def _case(self):
        rng = np.random.default_rng(0)
        b, l, p = 8, 32, 1024
        s = rng.integers(0, self.TOP + 1, (b, 2 * l, p)).astype(np.float64)
        s[:, :, :4] = 0.0
        s[:, :, 4:8] = self.TOP
        # ideal and noisy images mixed, sigma at 0, 1.3, 5 and 10 %
        mapes = [0.0, 0.013, 0.05, 0.10, 0.013, 0.0, 0.10, 0.05]
        draw = _draw([stream_key(k) for k in range(b)], range(b, 2 * b), mapes)
        out = rng.integers(-1000, 1000, (b, l, p)).astype(np.float64)
        return s, draw, out

    def test_c_pass_equals_numpy(self):
        s, draw, out0 = self._case()
        l = out0.shape[1]
        t = noise_table()
        for block in (noise_block(0, 0), noise_block(5, 3)):
            z = stream_normals(draw, block, s[0].size)[draw.sigma > 0]
            assert (z < t[1]).any() and (z > t[65535]).any(), \
                "hashes at both ends of the table"
            got = out0.copy()
            assert native.adc_noise_fold(s, draw.keys, draw.images,
                                         draw.sigma, t, block, got)
            noisy = adc_noise(s, draw, block)
            want = out0.copy()
            want += noisy[:, :l]
            want -= noisy[:, l:]
            assert got.tobytes() == want.tobytes()
            assert not np.array_equal(got, out0)

    def test_fold_without_the_library_gives_the_same_bits(self, monkeypatch):
        s, draw, out0 = self._case()
        em = PerRequestErrorModels([None] * len(draw))
        got = em.apply_to_counts(s, draw=draw, layer=2, group=1,
                                 fold=out0.copy())
        monkeypatch.setenv("REPRO_NATIVE", "0")
        want = em.apply_to_counts(s, draw=draw, layer=2, group=1,
                                  fold=out0.copy())
        assert got.tobytes() == want.tobytes()

    def test_misfit_operands_raise(self):
        s, draw, out0 = self._case()
        with pytest.raises(ValueError, match="do not fit"):
            native.adc_noise_fold(s, draw.keys, draw.images, draw.sigma,
                                  noise_table(), 0, out0[:, :-1])
        with pytest.raises(ValueError, match="do not fit"):
            native.adc_noise_fold(s.astype(np.float32), draw.keys,
                                  draw.images, draw.sigma, noise_table(), 0,
                                  out0)


def test_compile_keeps_fp_contraction_off(tmp_path, monkeypatch):
    """Both build commands, tuned and portable, pin ``-ffp-contract=off``:
    an FMA in the noise pass would round where NumPy does not."""
    seen = []

    def fake_run(cmd, **kwargs):
        seen.append(cmd)
        return subprocess.CompletedProcess(cmd, 1, b"", b"")

    monkeypatch.setattr(native.tempfile, "gettempdir", lambda: str(tmp_path))
    monkeypatch.setattr(native.subprocess, "run", fake_run)
    assert native._compile() is None
    assert len(seen) == 2
    assert "-march=native" in seen[0] and "-march=native" not in seen[1]
    assert all("-ffp-contract=off" in cmd for cmd in seen)


class TestStatistics:
    """2 M draws per check; the bounds are stated with each."""

    @pytest.mark.parametrize("mape", [0.013, 0.05, 0.10])
    def test_realised_mape(self, mape):
        """Within +-0.02 pp of the target on 2 M counts of 10,000."""
        v = np.full((1000, 2000), 10_000.0)
        noisy = AdcErrorModel(mape=mape, seed=3).apply(v)
        realised = float(np.mean(np.abs(noisy - v) / v))
        assert abs(realised - mape) < 0.0002

    def test_moments(self):
        z = _seeded(64, 32768).ravel()
        n = z.size
        mean = float(z.mean())
        c = z - mean
        var = float(np.mean(c * c))
        skew = float(np.mean(c**3)) / var**1.5
        kurt = float(np.mean(c**4)) / var**2
        assert abs(mean) < 3 / math.sqrt(n), "3 standard errors"
        # the table's tails stop at +-4.32: variance 1 - 3e-4, kurtosis
        # 3 - 0.006 in the limit
        assert abs(var - 1.0) < 0.005
        assert abs(skew) < 0.01
        assert abs(kurt - 3.0) < 0.03

    def test_no_lag1_correlation(self):
        """|r| < 0.005 along pixels, rows, images of one stream and
        between the streams of seeds k and k + 1 (about 2 M pairs
        each; one standard error is ~0.0007)."""
        bound = 0.005
        z = _seeded(64, 16 * 2048).reshape(64, 16, 2048)
        assert abs(_lag1(z[:, :, :-1], z[:, :, 1:])) < bound, "pixels"
        assert abs(_lag1(z[:, :-1, :], z[:, 1:, :])) < bound, "rows"
        assert abs(_lag1(z[:-1], z[1:])) < bound, "seeds k, k + 1"
        key = stream_key(7)
        images = stream_normals(_draw([key] * 64, range(64), [1.0] * 64),
                                noise_block(0, 0), 32768)
        assert abs(_lag1(images[:-1], images[1:])) < bound, "images"


class TestReuse:
    def test_standalone_draws_take_the_next_images(self):
        values = np.full((4, 50), 5000.0)
        m = AdcErrorModel(mape=0.05, seed=11)
        first, second = m.apply(values), m.apply(values)
        assert m.next_image == 8
        assert not np.array_equal(first, second)
        assert np.array_equal(AdcErrorModel(mape=0.05, seed=11).apply(values),
                              first)

    def test_measured_mape_measures_the_stream(self):
        m = AdcErrorModel(mape=0.05, seed=2)
        assert m.measured_mape(100_000) == pytest.approx(0.05, rel=0.02)
        assert m.next_image == 100_000
        values = np.full(3, 5000.0)
        assert not np.array_equal(
            m.apply(values), AdcErrorModel(mape=0.05, seed=2).apply(values)
        )

    def test_threads_sharing_a_model_never_share_an_image(self):
        """Eight threads reserve from one model under a tiny switch
        interval: every image index is handed out exactly once."""
        m = AdcErrorModel(seed=4)
        got: "list[list[int]]" = [[] for _ in range(8)]

        def worker(out):
            for _ in range(2000):
                out.append(m.reserve(3))

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(g,))
                       for g in got]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(previous)
        firsts = sorted(f for g in got for f in g)
        assert firsts == list(range(0, 3 * 8 * 2000, 3))
        assert m.next_image == 3 * 8 * 2000

    def test_unseeded_models_differ_and_pickle_their_key(self):
        values = np.full((2, 100), 5000.0)
        a, b = SconnaErrorModel(), SconnaErrorModel()
        copy = pickle.loads(pickle.dumps(a))
        first = a.apply_to_counts(values)
        assert not np.array_equal(first, b.apply_to_counts(values))
        assert np.array_equal(first, copy.apply_to_counts(values))
