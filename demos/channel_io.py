# Channel specs as JSON files, plus the validation report the CLI prints.
# The same files drive the command line: try
#   randual inspect amplitude_damping.json
#   randual estimate amplitude_damping.json --observable-a '[[[1,0],[0,0]],[[0,0],[-1,0]]]' \
#       --observable-b '[[[1,0],[0,0]],[[0,0],[-1,0]]]'

import json
import tempfile
from pathlib import Path

import numpy as np

from randual.channels import (
    KrausChannel,
    load_channel,
    save_channel,
    validate_channel,
)

gamma = 0.25
ops = np.stack(
    [
        np.array([[1.0, 0.0], [0.0, np.sqrt(1 - gamma)]], dtype=complex),
        np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]], dtype=complex),
    ]
)
ch = KrausChannel(ops)

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "amplitude_damping.json"
    save_channel(ch, str(path))
    print(f"wrote {path.name}:")
    spec = json.loads(path.read_text())
    print(json.dumps({k: spec[k] for k in ("kind", "d_a", "d_b")}, indent=2))
    print(f"({len(spec['matrices'])} matrices of shape {np.shape(spec['matrices'][0])})")

    back = load_channel(str(path))
    print(f"\nroundtrip exact: {np.array_equal(back.operators, ch.operators)}")

diag = validate_channel(ch)
print(f"\nvalidation: kind {diag.kind}, tp residual {diag.tp_residual:.2e}, "
      f"min choi eigenvalue {diag.choi_min_eigenvalue:+.2e}")
# r = 2 operators give the 4 x 4 Choi matrix rank 2: two exact zeros lead
print(f"choi spectrum: {np.round(diag.choi_spectrum, 6)}, kraus rank {diag.kraus_rank}")
print(f"valid: {diag.is_valid}")
