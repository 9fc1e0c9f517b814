"""Attack cost calculus: device-priced computation, budgeted games,
closed-form break estimators, and desk-scale toy validations."""

__version__ = "0.1.0"
