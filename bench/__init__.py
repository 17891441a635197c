"""The repo's fixed-work benchmark (see ``bench/README.md``).

A package so that ``bench/trace.py`` is imported as ``bench.trace`` and
never shadows the standard library's ``trace`` module.
"""
