"""The shipped lint checkers.

Importing this package registers every builtin rule with the framework's
checker registry; :func:`repro.lint.framework.all_checkers` does so
lazily.  Third-party checkers register the same way: define a module
that subclasses :class:`~repro.lint.framework.Checker`, decorate it with
:func:`~repro.lint.framework.register_checker`, and import it before
calling :func:`~repro.lint.framework.run_lint`.
"""

from repro.lint.checkers import (  # noqa: F401  (registration side effects)
    concurrency,
    det_propagation,
    determinism,
    exceptions,
    isolation,
    pickle_safety,
    registry_contract,
    serialization,
    user_scan,
    wear_escape,
)
