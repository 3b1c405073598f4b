"""Entry point for ``python -m qdemod``."""

from .cli import main

if __name__ == "__main__":
    main()
