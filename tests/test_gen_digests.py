"""`qtrack gen`'s output, pinned byte for byte.

A small noisy config (query noise, clutter, crushed scores, so boxes
are `np.float64` and some scores are resampled near 0) must write the
stream and annotation files whose sha256 digests are recorded here. A
change to the generator or to either writer that moves one byte fails.
"""

import hashlib
import json

from qtrack.cli import main

CONFIG = {"synth": {"frames": 12, "tracks": 4, "d_q": 8, "noise_sigma": 0.05, "miss_prob": 0.1,
                    "fp_rate": 1.5, "degrade_fraction": 0.3, "seed": 5}}
DIGESTS = {
    "stream.jsonl": "e4fe81abd9e80cf0008096d2df1c05888b599fc15bf491712d25f24f37ce7e78",
    "annotations.json": "5046071c0b694d1ca2c2fa7a82bb229de5ff8212349c7d07713ddf1fe4fd9c82",
}


def test_gen_writes_the_recorded_bytes(tmp_path):
    config = tmp_path / "gen.json"
    config.write_text(json.dumps(CONFIG))
    out = tmp_path / "out"
    assert main(["gen", "--config", str(config), "--out", str(out)]) == 0
    scores = [json.loads(line)["score"] for line in (out / "stream.jsonl").read_text().splitlines()[1:]]
    assert min(scores) < 0.1  # some scores were crushed
    for name, digest in DIGESTS.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name
