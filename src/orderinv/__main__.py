"""``python -m orderinv``: the same command line as ``orderinv``."""

from .cli import entrypoint

if __name__ == "__main__":
    entrypoint()
