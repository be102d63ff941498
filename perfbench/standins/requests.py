"""Stand-in for `requests`, for interpreters that do not have it.

sqlvote's gateway imports `requests` for its remote backends only. The
benchmark uses the scripted backend, so with this module on the path sqlvote
imports and runs unchanged; a remote call would fail like a network error.
"""


class RequestException(Exception):
    pass


def post(*args, **kwargs):
    raise RequestException("requests is not installed; only the scripted backend can run")
