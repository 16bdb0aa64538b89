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
import random
import tempfile
from pathlib import Path

from test_acceptance import run_pipeline
from topogen import io, synth
from topogen.cli import main

COMMANDS = {
    "ingest": ["ingest", "campaign-a.log", "campaign-b.log", "--min-count", "12",
               "--out", "ingest"],
    "ingest-median": ["ingest", "campaign-b.log", "--aggregator", "median",
                      "--out", "ingest-median"],
    "tree-reduce": ["tree", "grid.json", "--kappa", "linear", "--margin", "15",
                    "--reduce", "--out", "tree-reduce"],
    "tree-root": ["tree", "grid.json", "--root", "5", "--out", "tree-root"],
    "degree": ["degree", "grid.json", "3", "--out", "degree"],
    "verify": ["verify", "tree-reduce/tree.json", "grid.json"],
    "settings": ["settings", "46"],
    # 6x6: enough bound ties and near-equal losses to pin the tree sweep
    "tree6-reduce": ["tree", "grid6.json", "--kappa", "linear", "--margin", "15",
                     "--reduce", "--out", "tree6-reduce"],
    "sweep-report6": ["sweep-report", "grid6.json", "--out", "sweep-report6"],
}

# one line of each kind that ingest rejects
MALFORMED_LINES = [
    "1 2 3.0 -50.0 26",  # field count
    "1 2 3.0 minus-fifty 26 3",  # conversion
    "2 2 3.0 -50.0 26 3",  # self-reception
    "1 2 3.0 10.0 26 3",  # negative loss
    "1 2 3.0 -50.0 9 3",  # channel
    "1 2 3.0 -50.0 26 -1",  # sequence number
]

# matrix file -> (rows, cols) of the seed-1 grid scenario written to it
GRIDS = {"grid.json": (4, 4), "grid6.json": (6, 6)}

GOLDEN = {
    "exit:ingest": 0,
    "stdout:ingest": "8b8383b0eb19e194b5f3193b6e2babdc78a5b4372bf5f01ff15a336c33a22729",
    "exit:ingest-median": 0,
    "stdout:ingest-median": "fd57cbcfb04bd3929e0fbad8064f02f60a505545af0f40d7f2b65c686a0f02c7",
    "file:campaign-a.log": "4b734d7f58a0acbf945647cca8ffc32ea44c29925b4d4f0ceb9c0ada2084232e",
    "file:campaign-b.log": "2c418ad32fc8744cd43293c21940d87ab984d15b067a60a99a0eb4a62269f807",
    "file:ingest/manifest.json": "cc7fe55e1b4101e821eb8a1248c7306fa6eccff1b8d8309ae75626f5a627fccf",
    "file:ingest/matrix.json": "bf19143415e5311d9754faa9d953cbfcbf1a4a8d6b250406e87e9b71b6a40fcf",
    "file:ingest-median/manifest.json": "645fc063ef3cf2f8c432f3a81e271056449bee7ecabe58df318a5cb536fafb7c",
    "file:ingest-median/matrix.json": "561a31de3bccb60875870b1b73434dda6230c61820774807485f22220d6fe12d",
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
    "exit:tree6-reduce": 0,
    "stdout:tree6-reduce": "2c85ce30797d28731ecf2835016d21adbc330635287d4de6ae2688f2301b9b98",
    "exit:sweep-report6": 0,
    "stdout:sweep-report6": "441824c41dcf4c4d3bdb3ceb4096003b784296ce5e78455a5ad9119de3c9160d",
    "file:degree/manifest.json": "7156f477bdbc0c305cdb3a2019913a73f4d40ba7a06d820e2897dbe665af046e",
    "file:degree/selection.dot": "299fadfb07d06adc341e17572bbfaadfc429cb887352eb15a7bf7f0ac3c2dcac",
    "file:degree/selection.json": "ed5271766f89556aac69b0c105280bb82c100fb4f130a574839077b838201303",
    "file:grid.json": "e985ab4819b98a5caaa889b507c11d9b45861f42f2d53ac8342f9a3713d8da1b",
    "file:grid6.json": "6e1e6addd7978d38c53d63c5fe29591329e73b7916551e6d9183bff426691f2a",
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
    "file:sweep-report6/manifest.json": "1495c53590f6d65f4a1df7755f533d7503b07e826db8c2e3d6c3055e5836c207",
    "file:sweep-report6/sweep_report.csv": "1b81614ed5286ea873376970c32012870778ffd340c643a4aa71296155dc5413",
    "file:tree-reduce/manifest.json": "f701359edff1980f493bd2233ea18ffadb2e84b40a8dc421f3f83ede23efcde2",
    "file:tree-reduce/tree.dot": "b197a9d36dcf7eb19a18185babe66a32f2d00128b4398a1aa17ebcf2f8c5e489",
    "file:tree-reduce/tree.json": "859505fd47805527faab66bb0a038dc91b5f5acd3216760a99375fe4e55a6e6d",
    "file:tree-root/manifest.json": "d54115416c022a3f4ba9747860010d656e216bc5ae0bbc15aac86b2f1d9aa4d0",
    "file:tree-root/tree.dot": "20f7433fb84373f50dc7a8f2e55772b65a244a48fa98bb03854d3c5cdd9d29ac",
    "file:tree-root/tree.json": "f979a58734963793085b6342634985b71d29eb02ded8b39a90ecb877fba0f730",
    "file:tree6-reduce/manifest.json": "1308e7f05e08b480cd79d08dcb3f6733e4350f461b52653c9756525efa8c8eb6",
    "file:tree6-reduce/tree.dot": "8fe0ee16ed9f0a26cdc935c5857f5fb98fc9995c491cb95340c70e5b92a451ca",
    "file:tree6-reduce/tree.json": "29d91a5e02718f9e482b20a9d6a790e51e7d67a641ba6f70e108c2cefb7274b4",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def write_campaign_logs():
    """Two seeded campaign logs with comments, blank lines and rejected lines.

    About one packet in five is lost; RSSI is written either as an integer
    or as the repr of a float, so the stddev of a pair depends on every bit.
    """
    rng = random.Random(6)
    pairs = [(a, b) for a in range(5) for b in range(5) if a != b]
    for name, seqs in (("campaign-a.log", range(0, 14)), ("campaign-b.log", range(14, 20))):
        lines = ["# tx rx tx_power rssi channel seq", ""]
        for seq in seqs:
            for tx, rx in pairs:
                if rng.random() < 0.2:
                    continue
                tx_power = rng.choice((3, 0.0, -7.5))
                rssi = tx_power - rng.uniform(40.0, 95.0) - 2.0 * tx - rx
                text = f"{round(rssi)}" if rng.random() < 0.3 else repr(rssi)
                lines.append(f"{tx} {rx} {tx_power} {text} 26 {seq}")
            if seq == seqs[0] + 1:
                lines += ["", "  # mid-run comment", *MALFORMED_LINES]
        lines.append("0 1 3 -61.25 26 99  # trailing comment")
        Path(name).write_text("\n".join(lines) + "\n", encoding="utf-8")


def collect() -> dict:
    """Run the pinned commands in the current directory and hash their output."""
    record = {}
    stdout = textio.StringIO()
    with contextlib.redirect_stdout(stdout):
        run_pipeline(Path("pipeline"))
    record["stdout:pipeline"] = _sha256(stdout.getvalue().encode())
    for path, (rows, cols) in GRIDS.items():
        io.save_matrix(
            synth.grid_scenario(rows, cols, 3.0, path_loss_exponent=3.0,
                                shadowing_sigma=4.0, asymmetry_sigma=1.0, seed=1),
            path,
        )
    write_campaign_logs()
    for name, argv in COMMANDS.items():
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
