"""Tests for the mesh NoC."""

import pytest

from repro.arch.noc import MeshNoc


class TestTopology:
    def test_4x4_mesh(self):
        noc = MeshNoc(16)
        assert noc.side == 4
        assert len(noc.nodes) == 16
        assert set(noc.nodes) == {(x, y) for x in range(4) for y in range(4)}
        assert noc.n_links == 2 * 4 * 3  # 24 bidirectional links

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            MeshNoc(10)


class TestRouting:
    def test_xy_route_shape(self):
        noc = MeshNoc(16)
        path = noc.xy_route((0, 0), (2, 3))
        assert path[0] == (0, 0)
        assert path[-1] == (2, 3)
        # X moves first, then Y
        assert path[:3] == [(0, 0), (1, 0), (2, 0)]

    def test_hop_count_is_manhattan(self):
        noc = MeshNoc(16)
        assert noc.hops((0, 0), (3, 3)) == 6
        assert noc.hops((1, 1), (1, 1)) == 0

    def test_route_stays_on_mesh(self):
        noc = MeshNoc(16)
        path = noc.xy_route((3, 0), (0, 3))
        for a, b in zip(path, path[1:]):
            assert a in noc.nodes and b in noc.nodes
            assert abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1

    def test_off_mesh_rejected(self):
        with pytest.raises(ValueError):
            MeshNoc(16).xy_route((0, 0), (4, 0))

    def test_average_hops_4x4(self):
        # mean Manhattan distance on a 4x4 grid = 2 * (mean 1-D distance)
        # mean 1-D distance for 4 points = 1.25
        assert MeshNoc(16).average_hops() == pytest.approx(2.5)


class TestTransferCost:
    def test_zero_words_free(self):
        t = MeshNoc(16).transfer(0)
        assert t.latency_s == 0.0
        assert t.energy_j == 0.0

    def test_latency_scales_with_words(self):
        noc = MeshNoc(16)
        small = noc.transfer(1_000)
        large = noc.transfer(1_000_000)
        assert large.latency_s > small.latency_s
        assert large.energy_j > small.energy_j

    def test_fill_latency_floor(self):
        t = MeshNoc(16).transfer(1)
        assert t.latency_s > 0  # router+bus pipeline fill

    def test_negative_words_rejected(self):
        with pytest.raises(ValueError):
            MeshNoc(16).transfer(-1)
