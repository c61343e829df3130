"""Run the command-line tool as ``python -m sdlat``."""

from .cli import main

if __name__ == "__main__":
    main()
