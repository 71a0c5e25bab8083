"""The session builder for ``jobs/`` entrypoints, which import it from here."""
from repro.session import get_spark  # noqa: F401
