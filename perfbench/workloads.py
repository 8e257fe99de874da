"""The benchmark's workloads: how each one makes its inputs and its config.

Every input is generated here from the workload seed: volumes with
``mridecomp.synth.generate_dataset`` and, for onnx_elbow_mlp, the ONNX
encoder from ``onnxgen``. The program receives only the generated files.
The functions import mridecomp, so call them only once ``src`` is on
``sys.path``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import onnxgen

ENCODER_FILE = "encoder.onnx"
ENCODER_SIDE = 32
ENCODER_DIM = 64
# synth intensities reach about 200; the sidecar scales them to order 1
ENCODER_STD = 100.0


@dataclass(frozen=True)
class Workload:
    name: str
    subjects_per_class: int
    dims: tuple[int, int]
    nz: int
    onnx: bool = False
    # measuring processes per untraced run: each adds a first_run_s sample, so
    # more where the first run is short and a single sample is noisy
    processes: int = 3

    @property
    def subjects(self) -> int:
        return 3 * self.subjects_per_class

    @property
    def voxels(self) -> int:
        return self.subjects * self.dims[0] * self.dims[1] * self.nz


WORKLOADS = {
    w.name: w
    for w in (
        Workload("ingest_128", subjects_per_class=10, dims=(128, 128), nz=128),
        Workload(
            "onnx_elbow_mlp", subjects_per_class=6, dims=(24, 24), nz=30, onnx=True, processes=16
        ),
    )
}


def generate_inputs(w: Workload, inputs_dir: Path, seed: int) -> Path:
    """Write the workload's volumes, manifest and encoder; return the manifest."""
    from mridecomp import synth

    manifest, _ = synth.generate_dataset(
        inputs_dir, subjects_per_class=w.subjects_per_class, nz=w.nz, seed=seed, dims=w.dims
    )
    if w.onnx:
        onnxgen.write_encoder(
            inputs_dir / ENCODER_FILE, ENCODER_SIDE, ENCODER_DIM, seed=seed, std=ENCODER_STD
        )
    return manifest


def pipeline_config(w: Workload, inputs_dir: Path):
    """The PipelineConfig the workload runs with its generated inputs."""
    from mridecomp.config import (
        DecompositionConfig,
        FeatureConfig,
        PipelineConfig,
        TrainingConfig,
    )

    cfg = PipelineConfig()
    if w.onnx:
        model_path = inputs_dir / ENCODER_FILE
        sidecar = model_path.with_name(model_path.name + ".json")
        cfg = replace(
            cfg,
            compose_mode="prob-sum",
            features=FeatureConfig(
                backend="onnx", model_path=str(model_path), sidecar_path=str(sidecar)
            ),
            decomposition=DecompositionConfig(mode="elbow", k_min=2, k_max=6, n_init=10),
            training=replace(TrainingConfig(), hidden_dim=32),
        )
    cfg.validate()
    return cfg
