"""Shared fixtures: benchmark plants, lifted models, and cached optimizer runs."""

from dataclasses import dataclass

import numpy as np
import pytest

from circulant_ilc import (
    PRESETS,
    DeletedModel,
    LiftedModel,
    OptimizerConfig,
    circulant_inverse,
    delete_initial_steps,
    discretize_zoh,
    optimize,
    realize,
)

BENCHMARKS = ("third_order", "fourth_order", "fifth_order")


@dataclass(frozen=True)
class Bench:
    """One benchmark plant with its lifted matrices at the benchmark scale."""

    name: str
    continuous: object
    css: object
    plant: object
    model: LiftedModel
    inverse: np.ndarray

    def deleted(self, q) -> DeletedModel:
        return delete_initial_steps(self.model, self.inverse, q)


def _build(name) -> Bench:
    preset = PRESETS[name]
    css = realize(preset.plant)
    plant = discretize_zoh(css, 1.0 / preset.sample_hz)
    model = LiftedModel.build(plant, preset.horizon)
    return Bench(
        name=name,
        continuous=preset.plant,
        css=css,
        plant=plant,
        model=model,
        inverse=circulant_inverse(model),
    )


@pytest.fixture(scope="session")
def benches():
    return {name: _build(name) for name in BENCHMARKS}


@pytest.fixture(scope="session")
def third(benches):
    return benches["third_order"]


@pytest.fixture(scope="session")
def fourth(benches):
    return benches["fourth_order"]


@pytest.fixture(scope="session")
def fifth(benches):
    return benches["fifth_order"]


@pytest.fixture(scope="session")
def optimized(benches):
    """The full-length benchmark descent runs, shared across tests (they dominate runtime).

    Each run takes its descent length and region policy from the preset, so the
    tests check the law the CLI ships for that plant.
    """
    runs = {}
    for name, q in (("third_order", 1), ("third_order", 0), ("fourth_order", 2), ("fifth_order", 2)):
        preset = PRESETS[name]
        config = OptimizerConfig(
            iterations=preset.optimizer_iterations, reselect_region=preset.reselect_region
        )
        runs[(name, q)] = optimize(benches[name].deleted(q), config)
    return runs
