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
    # guard 3 at the least transmit power: base -17/-99 guarded as -16/-101
    "settings-82": ["settings", "82"],
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
    "file:ingest/matrix.json": "fea53fdf090f5ff5f35669b6257c7e44c207ddd0668d7e9960f0732d4f28e5f8",
    "file:ingest-median/manifest.json": "645fc063ef3cf2f8c432f3a81e271056449bee7ecabe58df318a5cb536fafb7c",
    "file:ingest-median/matrix.json": "561a31de3bccb60875870b1b73434dda6230c61820774807485f22220d6fe12d",
    "stdout:pipeline": "0f6cb6f5794558dd8eeac18cbd777539cececff0f738cfc5d9a2d375431913d0",
    "exit:tree-reduce": 0,
    "stdout:tree-reduce": "f37cd0efa7447999e2e5f41d9a09a0f5bae62b46bbf18a7ab875cd4b3b80b5e4",
    "exit:tree-root": 0,
    "stdout:tree-root": "d5a6e12ac88c1932677241b45e6c5d7398668e726be00a0843cd3e1a872a250b",
    "exit:degree": 0,
    "stdout:degree": "54abedcf88a5076deec24ea9b0ad885a4372e25a897470d8bc6a42b544afce37",
    "exit:verify": 0,
    "stdout:verify": "50a8cbd5b947070cb751abae1cda97f51c62bbe28797f9f32b1d855ae10b2a80",
    "exit:settings": 0,
    "stdout:settings": "93f68481cf4521968ed53e84432ced5426076bcb6ff174b4c11e6fbf9301c067",
    "exit:settings-82": 0,
    "stdout:settings-82": "f87507db9af729a7f09a7b0c437c581ae6902eaac982bffd3385fb1fac1910e7",
    "exit:tree6-reduce": 0,
    "stdout:tree6-reduce": "01ce2f8738dfd0bdcd46a5be67cef159e24bfe5341fae34cd55dff9563a71d8d",
    "exit:sweep-report6": 0,
    "stdout:sweep-report6": "bbf9165bec3eaaa7d0698b09edbea6a3dbe191147195a78a28cfa4024f585667",
    "file:degree/manifest.json": "27343265f92ddd89a69fed1e75c6eb2b851c54394cfb359303db32717ae72fbf",
    "file:degree/selection.dot": "efa8e8af61ae1fb8a2ef532a5844782784939b70644908e361f6650b37efddfe",
    "file:degree/selection.json": "a6dbe1f118fb5acc3ea73a6f488e9346190d002e863a981adf84e3077f19dc1f",
    "file:grid.json": "d13f6263b1f2b4f88c3743d9172155c3702aea7a7963479f8dc4a78ec5cea99a",
    "file:grid6.json": "afcfdcda79bed968697d3bdf7810c1cd1393494cbe19f96c16693b44887b59a5",
    "file:pipeline/analyze/degrees.csv": "69af2a754f067333fd3899deb76d6df1cabdd57b0b1d0eb35002c57375ab2d39",
    "file:pipeline/analyze/manifest.json": "f02444b2519ab37476c0c10b9607456acf845cfd618653040fe0acc462b5959c",
    "file:pipeline/analyze/monotonicity.txt": "51f59bb3b3cccbbdff6880639800212fd201a18e8a42a9a511eef86b1cbda2f5",
    "file:pipeline/degree/manifest.json": "5bd2c98cfbde9cbd2351c1346452f60953c72d5953234a3c0930db8e3845eebc",
    "file:pipeline/degree/selection.dot": "d3535670d1b98223cd75597aa243b3972eaa881b8d88c203980c727a3a6c94b4",
    "file:pipeline/degree/selection.json": "2cc739f48218b093420e892f4729d8550f7a20a44e26221cb13884075a07040a",
    "file:pipeline/manifest.json": "9e426b707d55672ef2c7738903737b53b367e9b35f4c421a80a95ec6c497e7fe",
    "file:pipeline/matrix.json": "c865d08d9bded7446f3e0b68e1cf1bc67aa62ca895663c07390518c569bc3973",
    "file:pipeline/positions.json": "f9a8b9db8df2dcd78b73bfce5742965e736415e265db8abd9d8740c5bd8e77c4",
    "file:pipeline/report/manifest.json": "54f7dad74ec98b38aa9b8207e835a39ef12698b407c774a2324cecf02bbe955a",
    "file:pipeline/report/sweep_report.csv": "3e1f354176dd84537c142b238d6b04659cc0cc62be5a5419418122a36def142c",
    "file:pipeline/scenario.json": "85a58558257edb3414e1d55b454013cd5ff495cf14cb29398e1f398daddf2d32",
    "file:pipeline/tree/manifest.json": "70826004370e6fc5beb8ee64ca8e8845796e8d6173790d1cca3811e4b0cf6c8c",
    "file:pipeline/tree/tree.dot": "6ef8f22758a1b0edd034ed6afc412b01fff36ebabb13b13a509d348ffada9c31",
    "file:pipeline/tree/tree.json": "bdf75291a250157a662d37c3248993f2d11cef4d5e1e8e48e89cb8d9b800ba6c",
    "file:sweep-report6/manifest.json": "39ba77ddd35391d062131439f2ae60ea7e6cc51a7f837c47b417046d01de6dbf",
    "file:sweep-report6/sweep_report.csv": "b073b6ecd3c065f3f92d7be4f01474d339cfa68a97db6d9dd84efab691bb8a27",
    "file:tree-reduce/manifest.json": "a51d66befe31625e5cb6e7d29af4ea35ec419891213dd8bc460bfe9c3cac38e7",
    "file:tree-reduce/tree.dot": "72975410cadbdf1a9393bc3e97670decfbf0b79a284b516eaf8538db33d86b7f",
    "file:tree-reduce/tree.json": "b24f79e3946cc1f56c78d3c437a70b374f4c84f1e551dfbe5e2f1ad03d91ad42",
    "file:tree-root/manifest.json": "e58f40d4df9d4b9c9db0bcd2b22262cdf64dacac06a13353c9e7dcafaeb74268",
    "file:tree-root/tree.dot": "ae65134d2ddf3158ae5116b298caa1f5b3fe1d9569e130b0a6b960f32e08aaad",
    "file:tree-root/tree.json": "991e2bde975f77e1a1672bba5b5354aba735b317bf01b3956e8d580d0e63f4d3",
    "file:tree6-reduce/manifest.json": "56670bfcb793957fbea82a4e67d1ebc8ef955a78c133aa7a2bdcd404927789d4",
    "file:tree6-reduce/tree.dot": "551aa25ff9a9d68a73282050da5cb2f6936880d769c39ac06924edf254f601ce",
    "file:tree6-reduce/tree.json": "a36bf62c06a35499d06f13f440f2bf079b1b6a04d8647d5bcdd6fce96a0bd571",
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
