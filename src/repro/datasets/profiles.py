"""Statistical profiles of the paper's seven evaluation matrices.

Each :class:`MatrixProfile` records (a) the real dataset's headline
statistics from Table 1 of the paper, (b) the published compression
ratios (the benchmark scripts print them beside the measured ones, to
stdout), and
(c) the generator parameters that make the synthetic stand-in exhibit
the same compression-relevant structure:

- ``density`` — fraction of non-zero entries;
- ``distinct_fraction`` — distinct non-zero values per non-zero entry
  (≈1 means near-unique floats, ≈0 means a tiny value dictionary);
- ``global_pool`` — when set, all columns draw from one shared value
  dictionary of this size (Census has 45 distinct values *total*);
- ``n_groups`` / ``latent_cardinality`` / ``frac_correlated`` — the
  planted column-correlation structure: correlated columns are
  deterministic functions of shared latent factors, which is the
  redundancy grammar compression and column reordering exploit;
- ``scatter_columns`` — whether correlated columns are spread apart
  (making column *reordering* profitable, as the paper observes for
  Airline78/Covtype/Census) or already adjacent (Mnist-like, where
  reordering does not help);
- ``zeros_from_latent`` — whether the zero pattern follows the latent
  factors (structured sparsity) or is independent noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class MatrixProfile:
    """Profile of one paper dataset and its synthetic generator knobs."""

    name: str
    description: str
    # -- real dataset statistics (paper Table 1) --
    paper_rows: int
    paper_cols: int
    paper_density: float
    paper_distinct: int
    paper_ratios: dict = field(default_factory=dict)
    # -- synthetic generator parameters --
    default_rows: int = 4000
    density: float = 0.5
    distinct_fraction: float = 0.01
    global_pool: int | None = None
    n_groups: int = 4
    latent_cardinality: int = 8
    master_correlation: float = 0.0
    frac_correlated: float = 0.5
    scatter_columns: bool = True
    zeros_from_latent: bool = False
    value_decimals: int = 3

    @property
    def cols(self) -> int:
        """Synthetic matrices keep the real column count."""
        return self.paper_cols


#: Table 1 compression ratios (percent of the dense size), for reporting.
def _ratios(gzip, xz, csrv, re_32, re_iv, re_ans) -> dict:
    return {
        "gzip": gzip,
        "xz": xz,
        "csrv": csrv,
        "re_32": re_32,
        "re_iv": re_iv,
        "re_ans": re_ans,
    }


PROFILES: dict[str, MatrixProfile] = {
    "susy": MatrixProfile(
        name="susy",
        description=(
            "SUSY particle-physics features: dense, near-unique floats — "
            "the hardest input for grammar compression (re_32 ≈ csrv)."
        ),
        paper_rows=5_000_000,
        paper_cols=18,
        paper_density=0.9882,
        paper_distinct=20_352_142,
        paper_ratios=_ratios(53.27, 43.94, 74.80, 74.80, 69.91, 66.63),
        default_rows=4000,
        density=0.9882,
        distinct_fraction=0.23,
        n_groups=1,
        latent_cardinality=4,
        frac_correlated=0.0,
        scatter_columns=False,
        value_decimals=6,
    ),
    "higgs": MatrixProfile(
        name="higgs",
        description=(
            "HIGGS detector features: dense, many distinct values with "
            "mild reuse; grammar compression gives a moderate gain."
        ),
        paper_rows=11_000_000,
        paper_cols=28,
        paper_density=0.9211,
        paper_distinct=8_083_943,
        paper_ratios=_ratios(48.38, 31.47, 50.46, 46.91, 41.38, 38.05),
        default_rows=5000,
        density=0.9211,
        distinct_fraction=0.035,
        n_groups=4,
        latent_cardinality=48,
        frac_correlated=0.3,
        scatter_columns=False,
        value_decimals=4,
    ),
    "airline78": MatrixProfile(
        name="airline78",
        description=(
            "Airline on-time records: few distinct values and strongly "
            "correlated columns; grammar compression shines and column "
            "reordering yields a further gain."
        ),
        paper_rows=14_462_943,
        paper_cols=29,
        paper_density=0.7266,
        paper_distinct=7_794,
        paper_ratios=_ratios(13.27, 7.01, 38.06, 14.84, 11.13, 9.27),
        default_rows=6000,
        density=0.7266,
        distinct_fraction=0.004,
        n_groups=5,
        latent_cardinality=16,
        frac_correlated=0.8,
        scatter_columns=True,
        zeros_from_latent=True,
        value_decimals=2,
    ),
    "covtype": MatrixProfile(
        name="covtype",
        description=(
            "Forest cover type: sparse with many one-hot indicator "
            "columns; structured zeros dominate."
        ),
        paper_rows=581_012,
        paper_cols=54,
        paper_density=0.22,
        paper_distinct=6_682,
        paper_ratios=_ratios(6.25, 3.34, 11.95, 7.21, 4.52, 3.87),
        default_rows=4000,
        density=0.22,
        distinct_fraction=0.02,
        n_groups=6,
        latent_cardinality=10,
        frac_correlated=0.85,
        scatter_columns=True,
        zeros_from_latent=True,
        value_decimals=1,
    ),
    "census": MatrixProfile(
        name="census",
        description=(
            "US census categoricals: only 45 distinct values in the whole "
            "matrix and heavy column correlation — the best case for "
            "grammar compression (paper: 1.5% of the dense size)."
        ),
        paper_rows=2_458_285,
        paper_cols=68,
        paper_density=0.4303,
        paper_distinct=45,
        paper_ratios=_ratios(5.54, 2.79, 22.25, 3.24, 2.02, 1.53),
        default_rows=5000,
        density=0.4303,
        distinct_fraction=0.0,
        global_pool=45,
        n_groups=7,
        latent_cardinality=16,
        master_correlation=0.9,
        frac_correlated=0.95,
        scatter_columns=True,
        zeros_from_latent=True,
        value_decimals=0,
    ),
    "optical": MatrixProfile(
        name="optical",
        description=(
            "Optical interconnection network traces: very dense with many "
            "distinct values; modest grammar gains."
        ),
        paper_rows=325_834,
        paper_cols=174,
        paper_density=0.975,
        paper_distinct=897_176,
        paper_ratios=_ratios(53.54, 27.13, 50.62, 40.70, 35.81, 34.31),
        default_rows=1200,
        density=0.975,
        distinct_fraction=0.016,
        n_groups=12,
        latent_cardinality=64,
        frac_correlated=0.35,
        scatter_columns=False,
        value_decimals=4,
    ),
    "mnist2m": MatrixProfile(
        name="mnist2m",
        description=(
            "Infinite-MNIST pixels: sparse images over a 255-value "
            "dictionary; neighbouring pixel columns are already "
            "correlated, so reordering does not help (paper Fig. 4)."
        ),
        paper_rows=2_000_000,
        paper_cols=784,
        paper_density=0.2525,
        paper_distinct=255,
        paper_ratios=_ratios(6.46, 4.25, 12.69, 7.47, 5.84, 5.33),
        default_rows=1200,
        density=0.2525,
        distinct_fraction=0.0,
        global_pool=255,
        n_groups=49,
        latent_cardinality=8,
        frac_correlated=0.9,
        scatter_columns=False,
        zeros_from_latent=True,
        value_decimals=0,
    ),
}

#: Datasets in the paper's Table 1 order.
DATASET_ORDER = (
    "susy",
    "higgs",
    "airline78",
    "covtype",
    "census",
    "optical",
    "mnist2m",
)
