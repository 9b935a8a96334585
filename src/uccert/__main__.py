"""``python -m uccert``: the command-line interface of ``uccert.cli``."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
