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

Speech gets a synthetic corpus (:mod:`repro.datasets.voxforge`) that the
real decoder transcribes; images get only the latent difficulty model
(:mod:`repro.datasets.difficulty`) the calibrated profiles of
:mod:`repro.vision.profiles` sample from.  ``README.md`` describes each
substrate.
"""

from repro.datasets.difficulty import DifficultyModel, DifficultyProfile
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
    "SyntheticSpeechCorpus",
    "SyntheticVoxForgeConfig",
    "Utterance",
    "make_voxforge_surrogate",
]
