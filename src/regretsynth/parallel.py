"""Empty: the Pareto front is solved in one loop.

The front's points run in increasing gamma_d, each search taking the
levels the previous point certified as feasible, so they are no longer
independent and no thread pool is left.  The module stays importable
because the benchmark's tracer imports every package module by name.
"""
