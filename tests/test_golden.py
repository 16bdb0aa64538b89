"""Golden outputs: the sha256 of every file and stdout the CLI produces.

The determinism test in ``test_acceptance.py`` compares runs of the same
code with each other, so it cannot notice a refactor that changes the
output. This test compares against hashes stored here. Everything runs
from a fresh working directory with relative paths, so ``manifest.json``
does not depend on where the test runs.

Update a golden only together with a CHANGES.md entry that names the
intended behaviour change. Print the current values with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import hashlib
import io as textio
import os
import tempfile
from pathlib import Path

from test_acceptance import run_pipeline
from topogen import io, synth
from topogen.cli import main

GRID_COMMANDS = {
    "tree-reduce": ["tree", "grid.json", "--kappa", "linear", "--margin", "15",
                    "--reduce", "--out", "tree-reduce"],
    "tree-root": ["tree", "grid.json", "--root", "5", "--out", "tree-root"],
    "degree": ["degree", "grid.json", "3", "--out", "degree"],
    "verify": ["verify", "tree-reduce/tree.json", "grid.json"],
    "settings": ["settings", "46"],
}

GOLDEN = {
    "stdout:pipeline": "0489438fb58a77c1d2ffbf1656fdd7f61f7353cdc3aaf6ba76151788379776fd",
    "exit:tree-reduce": 0,
    "stdout:tree-reduce": "d75a92c4c5786c5dcbb7a032162ddc799086013a8cde2d49de668bbf22b60784",
    "exit:tree-root": 0,
    "stdout:tree-root": "77e9c2bb5f3df88b9f424138ffc18024e64d8bc0ebec65581a011fd352111320",
    "exit:degree": 0,
    "stdout:degree": "14b416f5fe9b675663933ff3035add7875b0327cf7f14733199e162ad73ad62e",
    "exit:verify": 0,
    "stdout:verify": "50a8cbd5b947070cb751abae1cda97f51c62bbe28797f9f32b1d855ae10b2a80",
    "exit:settings": 0,
    "stdout:settings": "93f68481cf4521968ed53e84432ced5426076bcb6ff174b4c11e6fbf9301c067",
    "file:degree/manifest.json": "7156f477bdbc0c305cdb3a2019913a73f4d40ba7a06d820e2897dbe665af046e",
    "file:degree/selection.dot": "299fadfb07d06adc341e17572bbfaadfc429cb887352eb15a7bf7f0ac3c2dcac",
    "file:degree/selection.json": "ed5271766f89556aac69b0c105280bb82c100fb4f130a574839077b838201303",
    "file:grid.json": "e985ab4819b98a5caaa889b507c11d9b45861f42f2d53ac8342f9a3713d8da1b",
    "file:pipeline/analyze/degrees.csv": "479e165597ed3f970ea2bc2ce784b7380e4bc1770b1f1964ce726d13f25a8c74",
    "file:pipeline/analyze/manifest.json": "38c189154acd0c593eb718f96d969f457a4154bd0fde6ace9f4d4165b450183c",
    "file:pipeline/analyze/monotonicity.txt": "6149548ecf94d54ffc712a1994ab79ecceac516a735c2622b5476de35b9c7318",
    "file:pipeline/degree/manifest.json": "e0e6e99575bad5b34d9238a7332e5199975d59eb347930c99874f65b47f56219",
    "file:pipeline/degree/selection.dot": "0a7cd3168dd8d2289f56ad4ae8dcf147c0b98130cc42e265fc4b72e999d9db91",
    "file:pipeline/degree/selection.json": "aedb99c87af9ccb6b808fb00fb226d0df382d63a9ba45e8d76d0fc5d3abb22de",
    "file:pipeline/manifest.json": "9e426b707d55672ef2c7738903737b53b367e9b35f4c421a80a95ec6c497e7fe",
    "file:pipeline/matrix.json": "93f08d58633f3fe2f57d9087da6a22373f9bb21b1bd3b20d18b14dacd2ddbe1b",
    "file:pipeline/positions.json": "f9a8b9db8df2dcd78b73bfce5742965e736415e265db8abd9d8740c5bd8e77c4",
    "file:pipeline/report/manifest.json": "71ac5d4d8402e9791f48f8bd588d0ed2dd9d806e566f3db8eda4039bc197d943",
    "file:pipeline/report/sweep_report.csv": "37b2523dabf635c309448d54ddade9e7dbd9b6af2cb4482c9bada38d8feede31",
    "file:pipeline/scenario.json": "85a58558257edb3414e1d55b454013cd5ff495cf14cb29398e1f398daddf2d32",
    "file:pipeline/tree/manifest.json": "95b7c38ad1af4747375771172f5da3a1e68ce72d7cc2a0fab66d255ebebbc064",
    "file:pipeline/tree/tree.dot": "ea02e5be39ad7b7df7b88742fced709214f756d35f22ca2909999dea8697ce18",
    "file:pipeline/tree/tree.json": "b3bc4789532bfb35dfdc619f153213063c3b6a3f3a337da8bf4650ee90545066",
    "file:tree-reduce/manifest.json": "f701359edff1980f493bd2233ea18ffadb2e84b40a8dc421f3f83ede23efcde2",
    "file:tree-reduce/tree.dot": "b197a9d36dcf7eb19a18185babe66a32f2d00128b4398a1aa17ebcf2f8c5e489",
    "file:tree-reduce/tree.json": "859505fd47805527faab66bb0a038dc91b5f5acd3216760a99375fe4e55a6e6d",
    "file:tree-root/manifest.json": "d54115416c022a3f4ba9747860010d656e216bc5ae0bbc15aac86b2f1d9aa4d0",
    "file:tree-root/tree.dot": "20f7433fb84373f50dc7a8f2e55772b65a244a48fa98bb03854d3c5cdd9d29ac",
    "file:tree-root/tree.json": "f979a58734963793085b6342634985b71d29eb02ded8b39a90ecb877fba0f730",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def collect() -> dict:
    """Run the pinned commands in the current directory and hash their output."""
    record = {}
    stdout = textio.StringIO()
    with contextlib.redirect_stdout(stdout):
        run_pipeline(Path("pipeline"))
    record["stdout:pipeline"] = _sha256(stdout.getvalue().encode())
    io.save_matrix(
        synth.grid_scenario(4, 4, 3.0, path_loss_exponent=3.0,
                            shadowing_sigma=4.0, asymmetry_sigma=1.0, seed=1),
        "grid.json",
    )
    for name, argv in GRID_COMMANDS.items():
        stdout = textio.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(argv)
        record[f"exit:{name}"] = code
        record[f"stdout:{name}"] = _sha256(stdout.getvalue().encode())
    for path in sorted(Path(".").rglob("*")):
        if path.is_file():
            record[f"file:{path.as_posix()}"] = _sha256(path.read_bytes())
    return record


def test_outputs_match_golden_hashes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert collect() == GOLDEN


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        for key, value in collect().items():
            print(f"    {key!r}: {value!r},")
