"""Momentum-space quantum mechanics of Gaussian-smeared (fuzzy) operators.

The package exports only ``__version__``; import each name from its layer:
``fuzzyqm.operators``, ``fuzzyqm.oscillator``, ``fuzzyqm.deuteron``,
``fuzzyqm.constants``, ``fuzzyqm.errors`` or ``fuzzyqm.numerics``.  So
``import fuzzyqm`` loads no layer, and each CLI command loads only its own.
"""

__version__ = "0.1.0"
