"""Byte-identity guard for the shipped configs: each file under ``configs/``,
loaded the way ``ibrl run --config`` loads it, must keep producing exactly
the CSV bytes recorded below."""

import hashlib
from pathlib import Path

import pytest

from ibrl.harness import config_from_mapping, emit_csv, parse_config_text, run_experiment

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

DIGESTS = {
    "ku_bandit": "fa4fc067bfc19b8b84fd766afce34972badf481e843119e8619ee1aca5c17ea1",
    "newcomb": "046ff4d113b6f275639728184329cdea6bc57604a7085e79d16bb210f5e2a698",
    "trap_bandit": "81323c0be46d03cbfc12af2f0eb29ccb0cd8cccfdd2f44fba29f060ab2c10b3b",
    "validate_classical": "083d6615d38bc31b1e73bcf605edc5bd29167796b34de1d582785453fe70d415",
}


def test_every_shipped_config_is_pinned():
    assert sorted(p.stem for p in CONFIGS.glob("*.cfg")) == sorted(DIGESTS)


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_shipped_config_csv_bytes_are_unchanged(name, tmp_path):
    cfg = config_from_mapping(parse_config_text((CONFIGS / f"{name}.cfg").read_text()))
    path = tmp_path / "run.csv"
    emit_csv(run_experiment(cfg), str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DIGESTS[name]
