"""``python -m wallisprod``: the same command line as the ``wallisprod`` script."""

from .cli import main

if __name__ == "__main__":
    main()
