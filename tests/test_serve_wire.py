"""Wire-protocol codec: round trips, zero-copy, and hostile bodies."""

import io
import struct

import numpy as np
import pytest

from repro.serve import wire
from repro.serve.wire import WireError


class TestFrameRoundTrip:
    def test_multi_tensor_round_trip_exact(self):
        a = np.arange(24, dtype=np.float64).reshape(2, 3, 4) / 7.0
        b = np.arange(6, dtype=np.int8).reshape(3, 2)
        meta = {"model": "m", "seed": 3, "nested": {"k": [1, 2]}}
        out_meta, tensors = wire.decode_frame(
            wire.encode_frame(meta, {"image": a, "aux": b})
        )
        assert out_meta == meta
        assert np.array_equal(tensors["image"], a)
        assert tensors["image"].dtype == a.dtype
        assert np.array_equal(tensors["aux"], b)
        assert tensors["aux"].dtype == b.dtype

    def test_decode_is_zero_copy_c_contiguous(self):
        a = np.arange(1000, dtype=np.float64).reshape(10, 100)
        _, tensors = wire.decode_frame(wire.encode_frame({}, {"x": a}))
        out = tensors["x"]
        assert out.flags["C_CONTIGUOUS"]
        assert not out.flags["OWNDATA"]  # a view into the body, not a copy

    def test_non_contiguous_input_and_empty_tensor(self):
        strided = np.arange(24.0).reshape(4, 6)[:, ::2]
        empty = np.empty((0, 5))
        _, tensors = wire.decode_frame(
            wire.encode_frame({}, {"s": strided, "e": empty})
        )
        assert np.array_equal(tensors["s"], strided)
        assert tensors["e"].shape == (0, 5)

    def test_metadata_only_frame(self):
        meta, tensors = wire.decode_frame(wire.encode_frame({"done": True}))
        assert meta == {"done": True}
        assert tensors == {}

    def test_every_whitelisted_dtype_round_trips(self):
        for dtype in ("float64", "float32", "int64", "int32", "int16",
                      "int8", "uint8", "bool"):
            arr = np.ones((2, 2), dtype=dtype)
            _, tensors = wire.decode_frame(wire.encode_frame({}, {"x": arr}))
            assert tensors["x"].dtype == np.dtype(dtype)
            assert np.array_equal(tensors["x"], arr)

    def test_object_dtype_rejected_at_encode(self):
        with pytest.raises(WireError, match="whitelist"):
            wire.encode_frame({}, {"o": np.array([{}], dtype=object)})


class TestIntegerNativeFrames:
    """uint8/int8 image frames travel the wire without any upcast: the
    decoded view keeps the narrow dtype, batches of such views stack
    without promotion, and the decoded (read-only) tensor feeds the
    fused inference path to bit-identical logits - never touching
    float64 between socket and logits."""

    @pytest.mark.parametrize("dtype", [np.uint8, np.int8])
    def test_decoded_view_keeps_narrow_dtype(self, dtype):
        img = np.arange(2 * 3 * 4 * 4, dtype=dtype).reshape(2, 3, 4, 4)
        _, tensors = wire.decode_frame(
            wire.encode_frame({"model": "m"}, {"image": img})
        )
        out = tensors["image"]
        assert out.dtype == np.dtype(dtype)
        assert not out.flags["OWNDATA"]      # zero-copy body view
        assert not out.flags["WRITEABLE"]
        assert np.array_equal(out, img)
        # the batcher's stack must not promote a uniform narrow batch
        stacked = np.concatenate([out, out], axis=0)
        assert stacked.dtype == np.dtype(dtype)

    def test_uint8_frame_to_logits_equivalence(self):
        from repro.cnn.datasets import N_CLASSES, generate_dataset
        from repro.cnn.inference import QuantizedModel
        from repro.cnn.micro import Conv2d, Flatten, Linear, ReLU, Sequential
        from repro.utils.rng import make_rng

        rng = make_rng(0)
        model = Sequential(
            Conv2d(3, 4, 3, padding=1, rng=rng), ReLU(),
            Flatten(), Linear(4 * 24 * 24, N_CLASSES, rng=rng),
        )
        ds = generate_dataset(4, seed=1)
        qm = QuantizedModel.from_trained(model, ds.images[:16])
        img = (ds.images[:2] * 200).astype(np.uint8)
        _, tensors = wire.decode_frame(
            wire.encode_frame({"model": "m"}, {"image": img})
        )
        decoded = tensors["image"]
        assert decoded.dtype == np.uint8
        profile = []
        got = qm.forward(decoded, mode="int8", fused=True, profile=profile)
        assert np.array_equal(got, qm.forward(img, mode="int8", fused=False))
        # every seam stays integer until the logits: the LUT entry, the
        # compiled program's requantize grids, and only then float64
        (entry,) = [t["entry"] for n, _, _, t in profile if n == "quantize"]
        assert entry == "lut"
        prog = qm.network_plan.program_for("int8", decoded.shape)
        assert all(
            s.requant[2].dtype.kind == "u"
            for s in prog.stages if s.requant is not None
        )
        assert got.dtype == np.float64


class TestFrameValidation:
    def make(self):
        return wire.encode_frame(
            {"model": "m"}, {"image": np.arange(12.0).reshape(3, 4)}
        )

    def test_bad_magic(self):
        buf = self.make()
        with pytest.raises(WireError, match="magic"):
            wire.decode_frame(b"XXXX" + buf[4:])

    def test_bad_version(self):
        buf = bytearray(self.make())
        buf[4] = 99
        with pytest.raises(WireError, match="version"):
            wire.decode_frame(bytes(buf))

    def test_truncated_header_and_body(self):
        buf = self.make()
        with pytest.raises(WireError, match="truncated"):
            wire.decode_frame(buf[:10])
        with pytest.raises(WireError, match="truncated"):
            wire.decode_frame(buf[:-5])

    def test_trailing_garbage_rejected(self):
        with pytest.raises(WireError, match="trailing"):
            wire.decode_frame(self.make() + b"zz")

    def test_payload_length_shape_mismatch(self):
        buf = bytearray(self.make())
        # the tensor's data_len field sits 8 bytes before its payload;
        # payload is the trailing 96 bytes (3*4 float64)
        offset = len(buf) - 96 - 8
        declared = struct.unpack_from("<Q", buf, offset)[0]
        assert declared == 96
        struct.pack_into("<Q", buf, offset, 88)
        with pytest.raises(WireError, match="declares"):
            wire.decode_frame(bytes(buf))

    def test_unknown_dtype_code(self):
        buf = bytearray(self.make())
        # tensor record: name_len(1) 'image'(5) dtype(1) ...
        offset = wire._HEADER.size + len(b'{"model":"m"}') + 1 + 5
        buf[offset] = 200
        with pytest.raises(WireError, match="dtype code"):
            wire.decode_frame(bytes(buf))

    def test_oversized_frame_vs_cap(self):
        buf = self.make()
        with pytest.raises(WireError, match="cap"):
            wire.decode_frame(buf, max_bytes=16)

    def test_meta_must_be_object(self):
        body = b"[1,2]"
        header = wire._HEADER.pack(
            wire.MAGIC, wire.WIRE_VERSION, 0, 0, len(body), len(body)
        )
        with pytest.raises(WireError, match="JSON object"):
            wire.decode_frame(header + body)

    def test_duplicate_tensor_names_rejected(self):
        single = wire.encode_frame({}, {"x": np.zeros(2)})
        meta_len = len(b"{}")
        record = single[wire._HEADER.size + meta_len:]
        header = wire._HEADER.pack(
            wire.MAGIC, wire.WIRE_VERSION, 0, 2, meta_len,
            meta_len + 2 * len(record),
        )
        with pytest.raises(WireError, match="duplicate"):
            wire.decode_frame(header + b"{}" + record + record)


class TestStreamReader:
    def test_frames_split_across_reads(self):
        frames = [
            wire.encode_frame({"i": i}, {"x": np.full((2,), float(i))})
            for i in range(3)
        ]
        stream = io.BytesIO(b"".join(frames))
        # a miserly reader: at most 7 bytes per call
        read = lambda n: stream.read(min(n, 7))
        seen = []
        while True:
            item = wire.read_frame(read)
            if item is None:
                break
            seen.append(item)
        assert [meta["i"] for meta, _ in seen] == [0, 1, 2]
        assert all(np.array_equal(t["x"], np.full((2,), float(i)))
                   for i, (_, t) in enumerate(seen))

    def test_eof_mid_frame_raises(self):
        buf = wire.encode_frame({}, {"x": np.zeros(4)})
        stream = io.BytesIO(buf[:-3])
        with pytest.raises(WireError, match="mid-frame"):
            while wire.read_frame(stream.read) is not None:
                pass


class TestNpy:
    def test_round_trip_zero_copy(self):
        a = np.arange(60, dtype=np.float32).reshape(3, 4, 5)
        out = wire.decode_npy(wire.encode_npy(a))
        assert np.array_equal(out, a) and out.dtype == a.dtype
        assert out.flags["C_CONTIGUOUS"] and not out.flags["OWNDATA"]

    def test_truncated_and_padded_payloads(self):
        buf = wire.encode_npy(np.arange(10.0))
        with pytest.raises(WireError, match="truncated"):
            wire.decode_npy(buf[:-4])
        with pytest.raises(WireError, match="oversized"):
            wire.decode_npy(buf + b"\x00" * 8)

    def test_garbage_header(self):
        with pytest.raises(WireError, match="NPY"):
            wire.decode_npy(b"not an npy body at all")

    def test_fortran_order_rejected(self):
        f_ordered = np.asfortranarray(np.arange(12.0).reshape(3, 4))
        out = io.BytesIO()
        np.lib.format.write_array(out, f_ordered, version=(1, 0))
        with pytest.raises(WireError, match="Fortran"):
            wire.decode_npy(out.getvalue())

    def test_object_payload_rejected(self):
        out = io.BytesIO()
        np.lib.format.write_array(
            out, np.array([{"a": 1}], dtype=object), allow_pickle=True
        )
        with pytest.raises(WireError, match="whitelist"):
            wire.decode_npy(out.getvalue())

    def test_cap_enforced(self):
        buf = wire.encode_npy(np.zeros(1000))
        with pytest.raises(WireError, match="cap"):
            wire.decode_npy(buf, max_bytes=64)
