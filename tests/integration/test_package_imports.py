"""The package root resolves its public names on first access (PEP 562).

Importing one subpackage must not pay for the rest: a campaign process
never needs the serve stack (asyncio, http) or the store service.  Each
check runs in a fresh interpreter, where ``sys.modules`` shows exactly
what an import pulled in.
"""

import json
import os
import subprocess
import sys

import repro

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _fresh(code: str):
    env = dict(os.environ, PYTHONPATH=_SRC)
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(done.stdout)


def test_campaign_import_leaves_the_serve_stack_unloaded():
    loaded = _fresh(
        "import json, sys\n"
        "import repro.harness.campaign\n"
        "heavy = ('asyncio', 'repro.store.service')\n"
        "print(json.dumps([m for m in heavy if m in sys.modules]))\n"
    )
    assert loaded == []


def test_every_public_name_resolves():
    missing = _fresh(
        "import json, repro\n"
        "print(json.dumps([n for n in repro.__all__ if getattr(repro, n, None) is None]))\n"
    )
    assert missing == []
    assert set(repro.__all__) <= set(dir(repro))
