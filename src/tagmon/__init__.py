"""tagmon: stream-based compliance monitoring with intervention rules.

Entities with characteristics produce discrete-time data streams; attributes
written as bounded first-order formulas are observed over those streams to
yield judgements; records of the judgements drive trigger->action rules that
update characteristics and notify the outside world.  Ships with executable
remote-alcohol-monitoring and home-detention-curfew scenarios.

Each name is imported from the module that defines it, as in ``from
tagmon.streams import Stream``; the package itself holds only
``__version__``.
"""

__version__ = "0.1.0"
