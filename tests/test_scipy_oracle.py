"""The numpy-only replacements against scipy, used here as an independent oracle.

The package runs on numpy alone; ``aggregation._ndtri`` (Cephes ndtri) and
``spectral.block_diag`` must reproduce the scipy routines they replace bit
for bit, so the ball samples and the operators stay what they were.
"""

import math

import numpy as np
import pytest
from scipy.linalg import block_diag as scipy_block_diag
from scipy.special import ndtri

from twoscalepop import aggregation, metapop, scenarios, spectral, threestage

_CLIP = 1e-12


def _mesh_inputs(count, dim):
    # the clipped Kronecker points that _kronecker_sphere_mesh pushes
    # through the normal quantile
    phi = 2.0
    for _ in range(64):
        phi = (1.0 + phi) ** (1.0 / (dim + 1))
    alpha = (1.0 / phi) ** np.arange(1, dim + 1)
    idx = np.arange(1, count + 1)[:, None]
    return np.clip(np.mod(0.5 + idx * alpha[None, :], 1.0), _CLIP, 1.0 - _CLIP)


def _ported(u):
    u = np.asarray(u, dtype=float)
    return np.array([aggregation._ndtri(v) for v in u.ravel().tolist()]).reshape(u.shape)


def _assert_same_bits(u):
    ours, ref = _ported(u), ndtri(np.asarray(u, dtype=float))
    bad = np.flatnonzero(ours.view(np.int64) != ref.view(np.int64))
    assert bad.size == 0, [(float(np.ravel(u)[i]), float(ours.flat[i]), float(ref.flat[i]))
                           for i in bad[:5]]


@pytest.mark.parametrize("dim", (2, 3, 6))
def test_ndtri_matches_scipy_on_every_mesh_input(dim):
    # the inputs for count n are the first n rows of those for count 300
    _assert_same_bits(_mesh_inputs(300, dim))


@pytest.mark.parametrize("dim", (2, 3, 6))
def test_sphere_mesh_matches_the_scipy_mesh(dim):
    for count in (0, 1, 2, 3, 5, 16, 32, 33, 64, 300):
        g = ndtri(_mesh_inputs(count, dim))
        ref = g / np.linalg.norm(g, axis=1, keepdims=True)
        mesh = aggregation._kronecker_sphere_mesh(count, dim)
        assert mesh.shape == ref.shape == (count, dim)
        assert mesh.tobytes() == ref.tobytes(), (count, dim)


def test_ndtri_matches_scipy_on_uniform_draws():
    _assert_same_bits(np.random.default_rng(20240).random(200_000))


def test_ndtri_matches_scipy_on_the_tails():
    _assert_same_bits(np.logspace(-300, -1, 20_000))
    _assert_same_bits(1.0 - np.logspace(-16, -1, 20_000))


def test_ndtri_matches_scipy_at_the_branch_edges():
    edges = [math.exp(-2), 1.0 - math.exp(-2), math.exp(-32), 1.0 - math.exp(-32),
             _CLIP, 1.0 - _CLIP, 0.5, 5e-324, 1.0 - 2.0**-53]
    near = [float(np.nextafter(v, t)) for v in edges for t in (0.0, 1.0)]
    _assert_same_bits([v for v in edges + near if 0.0 < v < 1.0])


def _operator_blocks(params):
    mats = [spectral.ensure_primitive(m) for m in threestage.dispersal_matrices(params)]
    yield "dispersal", mats
    yield "slow limit", [spectral.power_limit(m) for m in mats]
    yield "rescaled limit", [spectral.rescaled_power_limit(params.survivals[i], m)
                             for i, m in enumerate(mats)]
    model = threestage.make_model(params)
    ones = np.ones(model.patches)
    yield "model dispersal", list(model.dispersal)
    yield "outer spreads", [np.outer(spectral.perron_vector(m), ones)
                            for m in model.dispersal]


@pytest.mark.parametrize("name", ("fig2", "fig3", "fig10"))
def test_block_diag_matches_scipy(name):
    params = getattr(scenarios, f"{name}_params")()
    for label, blocks in _operator_blocks(params):
        ours, ref = spectral.block_diag(*blocks), scipy_block_diag(*blocks)
        assert ours.dtype == ref.dtype == np.float64, label
        assert ours.shape == ref.shape == (6, 6), label
        assert ours.flags.c_contiguous and ref.flags.c_contiguous, label
        assert ours.tobytes() == ref.tobytes(), label


@pytest.mark.parametrize("name", ("fig2", "fig10"))
def test_systems_on_scipy_blocks_give_the_same_bits(name, monkeypatch):
    params = getattr(scenarios, f"{name}_params")()
    rng = np.random.default_rng(7)
    xs = rng.uniform(0.0, 2.0, (20, 6))
    builds = [lambda v: threestage.make_system(params, v),
              lambda v: metapop.make_system(threestage.make_model(params), v)]

    def outputs():
        out = []
        for variant in metapop.VARIANTS:
            for build in builds:
                system = build(variant)
                for x in xs:
                    out += [system.complete(k)(x).tobytes() for k in (1, 10, 100)]
                    out.append(system.limit_map(x).tobytes())
                    out.append(system.lift(x[:3]).tobytes())
        return out

    ours = outputs()
    monkeypatch.setattr(spectral, "block_diag", scipy_block_diag)
    assert outputs() == ours
