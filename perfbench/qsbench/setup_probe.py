"""Set-up probe: a fresh interpreter imports qustat.cli and schema-validates configs.

    python3 setup_probe.py CONFIG...

The caller puts the program's sources on PYTHONPATH and pins BLAS threads.
"""

import json
import sys


def setup(paths):
    import jsonschema

    import qustat.cli

    for path in paths:
        with open(path, "r", encoding="utf-8") as fh:
            jsonschema.validate(json.load(fh), qustat.cli.CONFIG_SCHEMA)
    return 0


if __name__ == "__main__":
    sys.exit(setup(sys.argv[1:]))
