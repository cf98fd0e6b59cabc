"""``python -m lambek``: the command line front end."""

from .cli import entry

entry()
