"""Decision services: policy-guarded handlers over deployed tables."""

from confidec.service.builder import (
    REJECT_CERTIFICATE,
    REJECT_POLICY,
    DecisionService,
    build_desobj,
    emit_audit_script,
    handle_decision,
)

__all__ = [
    "REJECT_CERTIFICATE",
    "REJECT_POLICY",
    "DecisionService",
    "build_desobj",
    "emit_audit_script",
    "handle_decision",
]
