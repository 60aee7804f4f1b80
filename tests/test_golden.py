"""Golden digests of the bundled scenarios' virtual-mode metrics CSVs.

Each digest is the sha256 of the file ``asap run --scenario <name>
--seed 0`` writes. They pin the run's behaviour byte for byte: a change
that is meant to alter no behaviour (a refactor, a faster hot path) must
keep every digest. A change that alters behaviour on purpose updates
the digest here and says why in CHANGES.md.
"""

import hashlib

import pytest

from asap_stream.cli import main

GOLDEN_SHA256 = {
    "fig3": "0df44ddf2abe0cb6ca7cf2b4c89842db6417e23e55a9f637cf0b6b31e3ba2cfe",
    "fig4": "1d9cc512a401b1f26a92a27aa46923825fe05ac105a8b5efa640327760d2cbfc",
    "constant":
        "19416b30b202bda2007b09e0bdcb7209bd1f2e7e61f4903eee0d2e6c80411d94",
}


@pytest.mark.parametrize("scenario", sorted(GOLDEN_SHA256))
def test_metrics_csv_digest(scenario, tmp_path, capsys):
    out = tmp_path / f"{scenario}.csv"
    assert main(["run", "--scenario", scenario, "--seed", "0",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        GOLDEN_SHA256[scenario]
