"""``python -m mmqvi``: the command line of ``mmqvi.cli``."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
