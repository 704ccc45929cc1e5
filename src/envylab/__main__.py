"""`python -m envylab`: the command-line interface."""

from .cli import entry_point

entry_point()
