"""Setup shim.

The offline evaluation environment has no ``wheel`` package, so PEP 660
editable installs fail.  This shim lets ``pip install -e . --no-use-pep517``
(legacy ``setup.py develop``) work without network access.
"""

from setuptools import setup

setup(
    # What the tier-1 suite imports beyond the package's own dependencies.
    extras_require={"test": ["pytest", "hypothesis"]},
)
