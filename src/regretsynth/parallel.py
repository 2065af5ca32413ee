"""Empty.

The module stays importable because the benchmark's tracer imports every
package module by name.
"""
