"""``python -m loopcert``: the ``loopcert`` command line."""

from .cli import entrypoint

if __name__ == "__main__":
    entrypoint()
