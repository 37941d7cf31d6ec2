"""Build script: packaging metadata lives in pyproject.toml.

The one thing defined here is the optional compiled visitor for the wire
codec (``repro.serial._wirec``).  ``optional=True`` makes setuptools turn
a failed compile (no compiler, no Python headers) into a warning and a
pure-Python install: importing :mod:`repro` never requires the extension.
"""

from setuptools import Extension, setup

setup(ext_modules=[
    Extension("repro.serial._wirec", sources=["src/repro/serial/_wirec.c"],
              optional=True),
])
