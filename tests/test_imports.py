"""``import repro`` needs only numpy: scipy and networkx load on first use."""

import os
import pathlib
import subprocess
import sys

import repro

SRC = pathlib.Path(repro.__file__).resolve().parents[1]

#: Blocks both packages (any import of them raises ImportError), then imports
#: the serving stack and serves one request against the dense reference.
SCRIPT = """
import sys
sys.modules["networkx"] = sys.modules["scipy"] = None
import numpy as np
import repro, repro.serve
from repro.core.dense import sdp_attention
from repro.masks.windowed import LocalMask
q, k, v = repro.random_qkv(32, 8, seed=0)
mask = LocalMask(window=3)
response = repro.serve.AttentionServer().handle(q, k, v, mask)
np.testing.assert_allclose(response.output, sdp_attention(q, k, v, mask).output, atol=1e-5)
"""


def test_serving_imports_and_runs_without_scipy_or_networkx():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True,
        text=True,
        timeout=300,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
