"""``python -m lrcodes``: the same command line as the ``lrcodes`` script."""

from .cli import entrypoint

entrypoint()
