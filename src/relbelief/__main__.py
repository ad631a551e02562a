"""``python -m relbelief``: the same command line as the ``relbelief`` script."""

from .cli import main

if __name__ == "__main__":
    main()
