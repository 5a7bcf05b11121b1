"""`qtrack gen`'s output, pinned byte for byte.

Two configs must write the stream and annotation files whose sha256
digests are recorded here. A change to the generator or to either
writer that moves one byte fails.

- A small noisy one: query noise, misses, clutter, and some crushed
  scores (resampled near 0).
- One through the branches the first skips: no query noise (each
  query a copy of its track's latent), no movement (`step` 0), every
  overlapping detection crushed (`degrade_fraction` 1), and a canvas
  narrower than some boxes, where a center is held in the middle.

The writers' spelling of `np.float64` values is tested on its own in
`test_data_io.py`, as the generator writes Python floats.
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
STILL_NARROW_CONFIG = {"synth": {"frames": 10, "tracks": 6, "d_q": 6, "canvas": [80.0, 40.0], "noise_sigma": 0.0,
                                 "step": 0.0, "miss_prob": 0.2, "fp_rate": 1.5, "degrade_fraction": 1.0, "seed": 3}}
STILL_NARROW_DIGESTS = {
    "stream.jsonl": "43e94804c26f81c0c3dc4ac0f5b59cc8fab321b4998817c7dcc249ab04de85f1",
    "annotations.json": "e89c005e601a0479a20600d13f08c5cd33e5c7fddfc7f6b8af8c5cf5f1e040cb",
}


def _gen_writes(tmp_path, config, digests):
    (tmp_path / "gen.json").write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["gen", "--config", str(tmp_path / "gen.json"), "--out", str(out)]) == 0
    scores = [json.loads(line)["score"] for line in (out / "stream.jsonl").read_text().splitlines()[1:]]
    assert min(scores) < 0.1  # some scores were crushed
    for name, digest in digests.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


def test_gen_writes_the_recorded_bytes(tmp_path):
    _gen_writes(tmp_path, CONFIG, DIGESTS)


def test_gen_writes_the_recorded_bytes_without_noise_or_movement_on_a_narrow_canvas(tmp_path):
    _gen_writes(tmp_path, STILL_NARROW_CONFIG, STILL_NARROW_DIGESTS)
