"""Set-up a user pays on every command: import the CLI and build cli.Run.

Usage: setup_probe.py COMMAND CONFIG OUT [COMMAND CONFIG OUT ...]
with ``src`` on PYTHONPATH.  Building Run reads the config, validates it
against the schema and constructs the nonlinearity and operator.
"""

import sys

from oscillap import cli

parser = cli.build_parser()
triples = sys.argv[1:]
for i in range(0, len(triples), 3):
    command, config, out = triples[i:i + 3]
    cli.Run(parser.parse_args([command, "--config", config, "--out", out]))
