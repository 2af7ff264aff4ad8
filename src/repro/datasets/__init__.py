"""Synthetic datasets standing in for the paper's evaluation corpora.

The paper evaluates on ~35 k VoxForge utterances (ASR) and 45 k ILSVRC-2012
validation images (image classification).  Neither corpus is available
offline, so this package provides seeded synthetic substitutes that preserve
the properties the evaluation actually depends on:

* a spread of per-request difficulty (speakers / recording conditions for
  speech, visual ambiguity for images), and
* per-request correctness that is *correlated* across model versions, so the
  paper's request categories (unchanged / improves / degrades / varies)
  emerge naturally.

See DESIGN.md section 2 for the substitution rationale.
"""

from repro.datasets.difficulty import DifficultyModel, DifficultyProfile
from repro.datasets.imagenet import (
    SyntheticImageDataset,
    SyntheticImageNetConfig,
    make_imagenet_surrogate,
)
from repro.datasets.voxforge import (
    SpeakerProfile,
    SyntheticSpeechCorpus,
    SyntheticVoxForgeConfig,
    Utterance,
    make_voxforge_surrogate,
)

__all__ = [
    "DifficultyModel",
    "DifficultyProfile",
    "SpeakerProfile",
    "SyntheticImageDataset",
    "SyntheticImageNetConfig",
    "SyntheticSpeechCorpus",
    "SyntheticVoxForgeConfig",
    "Utterance",
    "make_imagenet_surrogate",
    "make_voxforge_surrogate",
]
