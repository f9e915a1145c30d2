"""Content-addressed blobs, mutable names, and a notarization chain."""
