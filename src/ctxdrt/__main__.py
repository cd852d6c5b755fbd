"""Run the command-line interface as ``python -m ctxdrt``."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
