"""Pinned survey output and per-item replay of the batched samplers.

The digests are SHA-256 sums of data files written by the per-object
samplers that preceded the batched ones (numpy 2.4, OpenBLAS 0.3.31, x86-64);
the batched samplers must reproduce them byte for byte. The replay tests
rebuild single items from their recorded seeds with the scalar constructors.
"""

import hashlib

import numpy as np
import pytest

from entrosteer import (
    random_mixed_state,
    random_pure_state,
    sample_ensemble,
    separable_sample,
    survey_fig1,
)
from entrosteer import montecarlo, qmat
from entrosteer.cli import main
from entrosteer.montecarlo import _derived_seeds

PINNED = [
    (
        ["fig1", "--ensemble", "mixed", "--n", "2000", "--seed", "5"],
        "1bc0d0f7abf95005d0da0730d59095d7c9853fa66876c0a3fda1442a8c81046b",
    ),
    (
        ["fig1", "--ensemble", "pure", "--n", "2000", "--seed", "5"],
        "ab0c66e77370c3b15ef928f90798e069b232abeec81d161d7a8ede7321a85c5b",
    ),
    (
        ["separable-audit", "--n", "500", "--k-max", "4", "--seed", "5"],
        "86f99c64d9836385ccd2147994d00ab7147ad99f5266b07f425ce2634a4e0e85",
    ),
]


@pytest.mark.parametrize(
    "argv,digest", PINNED, ids=["fig1-mixed", "fig1-pure", "separable-audit"]
)
def test_pinned_output_digest(tmp_path, argv, digest):
    out = tmp_path / "out.dat"
    assert main([*argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_mixed_items_replay_from_seed():
    states, seeds = sample_ensemble(300, "mixed", np.random.default_rng(61))
    ranks = set()
    for rho, seed in zip(states, seeds):
        g = np.random.default_rng(seed)
        rank = int(g.integers(1, 5))
        ranks.add(rank)
        assert np.array_equal(rho.mat, random_mixed_state(2, 2, rank, g).mat)
    assert ranks == {1, 2, 3, 4}


def test_pure_items_replay_from_seed():
    states, seeds = sample_ensemble(300, "pure", np.random.default_rng(62))
    for rho, seed in zip(states, seeds):
        again = random_pure_state(2, 2, np.random.default_rng(seed)).to_density()
        assert np.array_equal(rho.mat, again.mat)


def _separable_item(seed: int, k_max: int) -> np.ndarray:
    # the per-item construction: Dirichlet weights, then factor pairs in term order
    g = np.random.default_rng(seed)
    k = int(g.integers(1, k_max + 1))
    weights = g.dirichlet(np.ones(k))
    m = np.zeros((4, 4), dtype=complex)
    for w in weights:
        fa = random_mixed_state(2, 1, int(g.integers(1, 3)), g).mat
        fb = random_mixed_state(2, 1, int(g.integers(1, 3)), g).mat
        m += w * np.kron(fa, fb)
    return m


@pytest.mark.parametrize("k_max", [1, 4])
def test_separable_items_replay_from_seed(k_max):
    states = separable_sample(200, k_max, np.random.default_rng(63))
    seeds = _derived_seeds(np.random.default_rng(63), 200)
    for rho, seed in zip(states, seeds):
        assert np.array_equal(rho.mat, _separable_item(seed, k_max))


@pytest.mark.parametrize("sample", [sample_ensemble, survey_fig1])
def test_unknown_ensemble_is_rejected(sample):
    with pytest.raises(ValueError, match="ensemble must be 'pure' or 'mixed', got 'bell'"):
        sample(3, "bell", np.random.default_rng(0))


@pytest.mark.parametrize("ensemble", ["pure", "mixed"])
def test_fig1_survey_validates_its_stack_once(monkeypatch, ensemble):
    # counts every DensityMatrix built and every eigvalsh call during a survey
    calls = {"objects": 0, "eigvalsh": [], "stacks": []}
    post_init = qmat.DensityMatrix.__post_init__
    eigvalsh = np.linalg.eigvalsh
    validate = montecarlo.validate_density_stack

    def counted_post_init(self):
        calls["objects"] += 1
        post_init(self)

    def counted_eigvalsh(a, *args, **kwargs):
        calls["eigvalsh"].append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    def counted_validate(mats):
        calls["stacks"].append(mats.shape)
        return validate(mats)

    monkeypatch.setattr(qmat.DensityMatrix, "__post_init__", counted_post_init)
    monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
    monkeypatch.setattr(montecarlo, "validate_density_stack", counted_validate)
    records = survey_fig1(50, ensemble, np.random.default_rng(64), threads=2)
    assert len(records) == 50
    assert calls == {"objects": 0, "eigvalsh": [(50, 4, 4)], "stacks": [(50, 4, 4)]}
