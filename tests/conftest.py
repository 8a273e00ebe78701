import pytest

from nbminer.nbmodel import fit_database
from nbminer.synthgen import generate, preset_config


@pytest.fixture(scope="session")
def golden_db_and_params():
    """artif-1 at 300 transactions, seed 1, with the model from fit_database:
    the input of the golden digest tests."""
    db, _ = generate(preset_config("artif-1", n_transactions=300, seed=1))
    params, _ = fit_database(db)
    return db, params
