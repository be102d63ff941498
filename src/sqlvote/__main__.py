"""`python -m sqlvote …` runs the command line, as the installed `sqlvote` script does."""

from .cli import entrypoint

entrypoint()
