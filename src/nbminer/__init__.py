"""Itemset mining against a negative-binomial random-co-occurrence baseline."""

__version__ = "0.1.0"

from .baselines import mine_allconf, mine_frequent
from .evaluation import (
    allconf_runs,
    nb_runs,
    read_sweep,
    score,
    support_runs,
    sweep,
    write_sweep,
)
from .mining import (
    MinerConfig,
    find_threshold,
    nb_dfs,
    nb_gen,
    nb_select,
    predicted_precision,
    read_itemsets,
    write_itemsets,
)
from .nbmodel import (
    ConvergenceError,
    NBParams,
    UnderdispersedError,
    fit_database,
    fit_moments,
    gof_chi2,
    nb_pmf_prefix,
    read_model,
    write_model,
)
from .synthgen import (
    PRESETS,
    GenConfig,
    GroundTruth,
    generate,
    preset_config,
    read_truth,
    write_truth,
)
from .transactions import (
    BasketFormatError,
    TransactionDatabase,
    load_basket,
    write_basket,
)
