"""Untrusted request gateway: wire envelopes, client channel, FIFO queue."""
