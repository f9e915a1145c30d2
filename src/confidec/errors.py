"""Exception hierarchy shared across the package.

Every failure mode that callers are expected to distinguish gets its own
class; message text carries the human detail.
"""

from __future__ import annotations


class ConfidecError(Exception):
    """Base class for all package errors."""


# --- decision tables ---------------------------------------------------


class CellSyntaxError(ConfidecError):
    """A condition cell does not match the cell grammar. The text names the
    offset and the reason, never the cell."""

    def __init__(self, text: str, position: int, reason: str):
        super().__init__(f"bad cell at offset {position}: {reason}")
        self.text = text
        self.position = position
        self.reason = reason


class TableValidationError(ConfidecError):
    """A decision table document violates a structural constraint."""


class TypeMismatchError(ConfidecError):
    """A record value has the wrong type for the column it feeds."""


class MissingFieldError(ConfidecError):
    """A non-wildcard condition referenced a field the record lacks."""


class MissingAggregateError(ConfidecError):
    """A table needs an aggregate value that was not supplied."""


class AggregationError(ConfidecError):
    """An aggregation could not be evaluated (empty set, bad target)."""


# --- access policies ---------------------------------------------------


class PolicySyntaxError(ConfidecError):
    """Policy text does not match the policy grammar."""

    def __init__(self, position: int, reason: str):
        super().__init__(f"policy syntax error at offset {position}: {reason}")
        self.position = position
        self.reason = reason


class PolicyValidationError(ConfidecError):
    """Structurally valid policy text with inconsistent content."""


class ServiceBuildError(ConfidecError):
    """Policy, table and aggregation specs do not fit together."""


class DecisionRejected(ConfidecError):
    """A decision request was refused; message is the canonical reason."""


class UnknownFunctionError(ConfidecError):
    """Request names a decision function that is not deployed."""


class MalformedRequestError(ConfidecError):
    """Request payload decrypted fine but does not parse."""


# --- cryptography ------------------------------------------------------


class CertificateError(ConfidecError):
    """Certificate verification failed."""


class CertificateSignatureError(CertificateError):
    """Issuer signature does not verify."""


class CertificateValidityError(CertificateError):
    """Verification time is outside the certificate validity window."""


class CertificateFormatError(CertificateError):
    """Certificate document is malformed."""


class AuthenticationFailure(ConfidecError):
    """Authenticated decryption failed (wrong key, nonce, tag or aad)."""


class KeyDerivationError(ConfidecError):
    """Key-derivation input had the wrong shape."""


# --- attested execution ------------------------------------------------


class AttestationError(ConfidecError):
    """Base class for remote-attestation failures."""


class UnitCertificateError(AttestationError):
    """Step one: the unit identity certificate does not verify."""


class ChannelCertificateError(AttestationError):
    """Step two: the channel certificate is not signed by the unit key."""


class ReportError(AttestationError):
    """Step three: the report signature, code digest or channel binding is wrong."""


class SealingError(ConfidecError):
    """Sealed blob could not be opened under the given identity."""


# --- storage ------------------------------------------------------------


class StorageError(ConfidecError):
    """Base class for store failures."""


class BlobNotFoundError(StorageError):
    """No blob stored under the requested address."""


class NameNotFoundError(StorageError):
    """Name was never published."""


# --- gateway ------------------------------------------------------------


class GatewayError(ConfidecError):
    """Base class for request-queue failures."""


class QueueFullError(GatewayError):
    """Submission rejected because the queue is at capacity."""


class UnknownTicketError(GatewayError):
    """No pending or completed request under that ticket."""


class GatewayTimeoutError(GatewayError):
    """Response did not arrive within the wait deadline."""
