"""Synthetic stand-ins for the paper's seven ML matrices.

The paper evaluates on Susy, Higgs, Airline78, Covtype, Census, Optical
and Mnist2m (UCI/Kaggle; up to 14.5M rows).  Those files are not
available offline, so this subpackage generates matrices that match
each dataset's *statistical profile* — column count, non-zero density,
distinct-value richness, and inter-column correlation structure — at a
laptop scale.  Those properties decide how far each representation
compresses a matrix and how fast it multiplies, which is what the
experiments compare; :mod:`repro.datasets.synthetic` describes the
structure the generator plants.

- :mod:`repro.datasets.profiles` — the per-dataset profiles, including
  the paper's published Table 1/2/4 numbers for comparison;
- :mod:`repro.datasets.synthetic` — the generator;
- :mod:`repro.datasets.loaders` — the ``get_dataset`` registry.
"""

from repro.datasets.loaders import (
    DatasetBundle,
    get_dataset,
    list_datasets,
    make_profile,
)
from repro.datasets.profiles import PROFILES, MatrixProfile
from repro.datasets.synthetic import generate_matrix

__all__ = [
    "get_dataset",
    "list_datasets",
    "make_profile",
    "DatasetBundle",
    "MatrixProfile",
    "PROFILES",
    "generate_matrix",
]
