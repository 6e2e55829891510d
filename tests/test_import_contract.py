"""The command line never loads scipy; peak detection loads it on first use.

Each check runs in a fresh interpreter, because the test process itself has
long since imported scipy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from cavitylab import cli, synthlab

_SRC = str(Path(cli.__file__).resolve().parents[1])

_README_COMMANDS = [
    "dispersion --lambda-exc 533.3 --lambda-det 618.5 --roc 24 "
    "--l-min 2 --l-max 6 --tol-nm 25",
    "fit --preset g2_dip --seed 7",
    "fit --input {csv} --schema histogram --model exponential_decay",
    "purcell-budget --tau0 21.7 --tau-p 12.2 --qe 0.8 --dw 0.56 --branching 0.8 "
    "--lambda-c 618.5 --l-eff 3.75 --roc 24 --q-ideal 56400 --kappa-exp 160",
]

# the commands print their own lines; this prints, last, each command's exit
# code and the scipy modules loaded after it
_RUN_COMMANDS = """
import json, sys
from cavitylab import cli
seen = []
for argv in json.loads(sys.argv[1]):
    code = cli.main(argv)
    seen.append([code, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")])
print(json.dumps(seen))
"""

_DETECT_PEAKS = """
import sys
import numpy as np
from cavitylab import optics
before = "scipy.signal" in sys.modules
x = np.linspace(-10.0, 10.0, 2001)
peaks = optics.detect_peaks(1.0 / (1.0 + (x - 2.5) ** 2))
print(before, "scipy.signal" in sys.modules, peaks.tolist())
"""


def _python(code, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
    env.pop("CAVITYLAB_OUTDIR", None)
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_readme_commands_load_no_scipy(tmp_path):
    ds = synthlab.generate(synthlab.preset("lifetime_4k", seed=8))
    csv_path, _ = synthlab.write_dataset(ds, tmp_path / "decay.csv")
    argvs = [
        command.format(csv=csv_path).split() + ["--out", str(tmp_path / f"out{i}")]
        for i, command in enumerate(_README_COMMANDS)
    ]
    seen = json.loads(_python(_RUN_COMMANDS, json.dumps(argvs))[-1])
    assert seen == [[0, []]] * len(argvs)


def test_detect_peaks_imports_find_peaks_when_first_called():
    assert _python(_DETECT_PEAKS) == ["False True [1250]"]
