"""Errors shared across the workbench."""


class PresentationError(ValueError):
    """A finite presentation is malformed or references unknown ids.

    `path` names the field at fault, relative to what the raiser was given
    (empty for the whole input), and `message` is the bare text."""

    def __init__(self, message: str, path: tuple = ()):
        self.message = message
        self.path = tuple(str(p) for p in path)
        where = "/".join(self.path)
        super().__init__(f"{where}: {message}" if where else message)


class UniverseMismatch(PresentationError):
    """Values drawn from different point universes were combined."""


class ParseError(PresentationError):
    """A file could not be parsed into an entity; its path starts at the file."""
