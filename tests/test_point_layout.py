"""Every point array coxsim builds is coordinate-major: an (n, d) array that
is the transpose of a C-contiguous (d, n) block, so each coordinate is one
contiguous row and the regions' contains tests read contiguous columns.
A column_stack, a plain fancy index or an ndarray.copy() in a producer would
silently bring back the row-major layout; these tests catch it.  The window
and sphere samplers fill coordinates in place, on the same draws as the
row-major formulas in tests/oracles.py, bit for bit.
"""

import numpy as np
import pytest

from coxsim.coxmodels import MODELS
from coxsim.geometry import Disk, Rect
from coxsim.glauber import GlauberSpec, glauber_simulate, semigroup_sample
from coxsim.harness import stream
from coxsim.pointprocess import ReplicateBatch, sample_uniform_sphere
from oracles import disk_uniform, plane_points, rect_uniform, uniform_sphere

OFF_DISK = Disk((2.5, -1.25), 0.75)
OFF_RECT = Rect(-3.5, 1.25, 11.25, 4.0)


def rng_for(idx, seed=5150):
    return stream(seed, 0, 0, idx)


def coordinate_major(points: np.ndarray) -> bool:
    return points.ndim == 2 and points.shape[0] > 1 and points.T.flags.c_contiguous


@pytest.fixture(scope="module")
def plane_batch():
    return ReplicateBatch.ppp(OFF_RECT, 0.5, 50, rng_for(0))


class TestProducers:
    @pytest.mark.parametrize("window", [OFF_DISK, OFF_RECT])
    def test_window_uniform(self, window):
        assert coordinate_major(window.uniform(100, rng_for(1)))

    def test_sphere(self):
        assert coordinate_major(sample_uniform_sphere(rng_for(2), 100))

    def test_ppp_and_bpp(self):
        assert coordinate_major(ReplicateBatch.ppp(OFF_DISK, 3.0, 40, rng_for(3)).points)
        assert coordinate_major(ReplicateBatch.bpp(OFF_DISK, 3, 40, rng_for(4)).points)

    def test_stack_and_tile_of_row_major_arrays(self):
        rows = plane_points([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])
        assert rows.flags.c_contiguous
        stacked = ReplicateBatch.stack([rows, rows[:1], rows])
        assert coordinate_major(stacked.points)
        assert np.array_equal(stacked.points, np.concatenate([rows, rows[:1], rows]))
        tiled = ReplicateBatch.tile(rows, 4)
        assert coordinate_major(tiled.points)
        assert np.array_equal(tiled.points, np.tile(rows, (4, 1)))
        assert coordinate_major(ReplicateBatch.tile(rows, 1).points)

    def test_thin_superpose_concat(self, plane_batch):
        assert coordinate_major(plane_batch.points)
        assert coordinate_major(plane_batch.thin(0.5, rng_for(5)).points)
        assert coordinate_major(plane_batch.superpose(plane_batch).points)
        assert coordinate_major(ReplicateBatch.concat([plane_batch, plane_batch]).points)

    @pytest.mark.parametrize("name", list(MODELS))
    def test_model_and_twin(self, name):
        model = MODELS[name]
        params = model.params(30.0, model.sweep[0])
        _, pair = model.sample(params, model.window, 20, rng_for(6))
        assert coordinate_major(pair.model.points)
        assert coordinate_major(pair.twin.points)

    def test_glauber(self, plane_batch):
        spec = GlauberSpec(OFF_RECT, 0.5)
        assert coordinate_major(glauber_simulate(plane_batch, spec, rng_for(7), 0.7).points)
        assert coordinate_major(semigroup_sample(plane_batch, 0.7, spec, rng_for(8)).points)


class TestDrawsMatchRowMajorFormulas:
    """Equal streams give equal points and leave the streams in equal states."""

    @pytest.mark.parametrize("n", [0, 1, 7, 60_000])
    @pytest.mark.parametrize("window, oracle", [(OFF_RECT, rect_uniform),
                                                (OFF_DISK, disk_uniform)])
    def test_window_uniform(self, window, oracle, n):
        rng, ref = rng_for(9), rng_for(9)
        points = window.uniform(n, rng)
        assert points.shape == (n, 2)
        assert np.array_equal(points, oracle(window, n, ref))
        assert rng.random() == ref.random()

    @pytest.mark.parametrize("n", [0, 1, 7, 60_000])
    def test_sphere(self, n):
        rng, ref = rng_for(10), rng_for(10)
        points = sample_uniform_sphere(rng, n)
        assert points.shape == (n, 3)
        assert np.array_equal(points, uniform_sphere(ref, n))
        assert rng.random() == ref.random()
