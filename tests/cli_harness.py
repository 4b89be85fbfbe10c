"""The one harness of the CLI tests: ``nlbox.cli.main`` in this process."""
import contextlib
import io
import os
import subprocess
import sys
import warnings
from unittest import mock

import nlbox.cli


def run_cli(*args, stdin=None, env=None):
    """Run ``nlbox *args`` in this process, as ``python -m nlbox.cli`` runs it.

    stdin reads ``stdin`` (empty if None), stdout and stderr are captured, and
    ``env``, if given, replaces ``os.environ`` for the call.  Every warning is
    an error, as a warning on stderr fails an exact-stderr assert.  argparse's
    SystemExit becomes the exit code; any other exception fails the test.
    """
    out, err = io.StringIO(), io.StringIO()
    with (mock.patch.dict(os.environ, env or {}, clear=env is not None),
          mock.patch.object(sys, "stdin", io.StringIO(stdin or "")),
          contextlib.redirect_stdout(out), contextlib.redirect_stderr(err),
          warnings.catch_warnings()):
        warnings.simplefilter("error")
        try:
            code = nlbox.cli.main(list(args))
        except SystemExit as exc:
            code = exc.code
    return subprocess.CompletedProcess(list(args), code, out.getvalue(), err.getvalue())
