"""qtrack: tracking-by-detection for video text detection streams.

The package imports nothing: each name is imported from its own module
(`from qtrack.association import track_sequence`), so a command loads
only the modules it runs.
"""

__version__ = "0.1.0"
